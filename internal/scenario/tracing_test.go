// Traced-transcript identity pin: the causal tracing plane must render a
// byte-identical transcript whether the net runs on the serial engine or
// the sharded conservative engine at any shard count. This is the
// fig9-style acceptance gate for PR 10 — tracing observes virtual time,
// it never depends on wall-clock shard interleaving.
package scenario_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/workload"
)

// tracedChainTranscript builds a 12-bridge line (large enough that
// Partition accepts 4 shards), traces a warmed ping exchange end to end
// and returns the rendered transcript plus the tracer for follow-up
// assertions.
func tracedChainTranscript(t *testing.T, shards int) (string, *tracing.Tracer) {
	t.Helper()
	const nBridges = 12
	g := topo.New("trace-chain")
	segs := make([]topo.SegmentID, nBridges+1)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("s%d", i), topo.WithPropagation(2000))
	}
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	for i := 0; i < nBridges; i++ {
		b := g.AddBridge("", topo.LearningBridge, 2)
		g.Link(b, segs[i])
		g.Link(b, segs[i+1])
	}
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges])
	g.Affine(h1, h2)
	g.Shards(shards)
	net, err := g.Build(netsim.DefaultCostModel())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if shards > 1 && net.Shards() != shards {
		t.Fatalf("expected %d shards, got %d", shards, net.Shards())
	}
	tr := net.EnableTracing(tracing.Config{Seed: 7, SampleProb: 1})
	net.Warm(h1, h2)
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 256, 5)
	p.Run(net.Sim.Now() + netsim.Time(30*netsim.Second))
	tr.Flush()
	var sb strings.Builder
	tr.RenderTranscript(&sb)
	return sb.String(), tr
}

// TestTracedPingTranscriptShardIdentity is the pinned tentpole test: the
// traced transcript of the same warmed ping exchange must be
// byte-identical serial vs 2 vs 4 shards — the shard-crossing machinery
// (mailboxes, per-shard engines, batch merge) must be invisible in the
// causal record.
func TestTracedPingTranscriptShardIdentity(t *testing.T) {
	serial, str := tracedChainTranscript(t, 1)
	if serial == "" {
		t.Fatal("serial transcript is empty")
	}
	for _, want := range []string{"send", "wire", "rx", "demux", "vm", "verdict"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("transcript missing %q events:\n%s", want, serial)
		}
	}
	if str.DumpCount() != 0 {
		t.Fatalf("healthy traced run produced %d flight dumps", str.DumpCount())
	}
	for _, shards := range []int{2, 4} {
		got, tr := tracedChainTranscript(t, shards)
		if got != serial {
			t.Errorf("shards=%d transcript differs from serial (%d vs %d bytes)",
				shards, len(got), len(serial))
			reportFirstDiff(t, serial, got)
		}
		if tr.Dropped() != 0 {
			t.Errorf("shards=%d dropped %d events", shards, tr.Dropped())
		}
	}
}

// reportFirstDiff prints the first differing line pair so a determinism
// regression is diagnosable from the test log alone.
func reportFirstDiff(t *testing.T, a, b string) {
	t.Helper()
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Logf("first diff at line %d:\n  serial:  %s\n  sharded: %s", i+1, la[i], lb[i])
			return
		}
	}
	t.Logf("transcripts diverge in length: %d vs %d lines", len(la), len(lb))
}

// TestTracedSamplingIsShardInvariant reruns the chain with a partial
// sampling probability: the sampling decision rides the trace ID (head
// sampling at the minting NIC), so the selected subset — not just the
// full set — must be shard-invariant too.
func TestTracedSamplingIsShardInvariant(t *testing.T) {
	render := func(shards int) string {
		t.Helper()
		const nBridges = 12
		g := topo.New("trace-chain-sampled")
		segs := make([]topo.SegmentID, nBridges+1)
		for i := range segs {
			segs[i] = g.AddSegment(fmt.Sprintf("s%d", i), topo.WithPropagation(2000))
		}
		h1 := g.AddHost("")
		h2 := g.AddHost("")
		for i := 0; i < nBridges; i++ {
			b := g.AddBridge("", topo.LearningBridge, 2)
			g.Link(b, segs[i])
			g.Link(b, segs[i+1])
		}
		g.Link(h1, segs[0])
		g.Link(h2, segs[nBridges])
		g.Affine(h1, h2)
		g.Shards(shards)
		net, err := g.Build(netsim.DefaultCostModel())
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if shards > 1 && net.Shards() != shards {
			t.Fatalf("expected %d shards, got %d", shards, net.Shards())
		}
		tr := net.EnableTracing(tracing.Config{Seed: 11, SampleProb: 0.4})
		net.Warm(h1, h2)
		p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 128, 20)
		p.Run(net.Sim.Now() + netsim.Time(30*netsim.Second))
		tr.Flush()
		var sb strings.Builder
		tr.RenderTranscript(&sb)
		return sb.String()
	}
	serial := render(1)
	if sharded := render(2); sharded != serial {
		t.Errorf("sampled transcript differs serial vs 2 shards:\nserial:\n%s\nsharded:\n%s", serial, sharded)
	}
}

// TestTracedChaosChromeExportLints runs the seeded chaos family serially
// and at 4 shards with every built net traced at 25% head sampling,
// exports all of their tracers as one Chrome trace-event document and
// holds it to the Perfetto-shape lint (tracing.LintChrome), and requires
// the traced fingerprints to equal the untraced goldens.
func TestTracedChaosChromeExportLints(t *testing.T) {
	runSerial() // ensure the registry is populated
	scs, err := scenario.Match("^chaos-")
	if err != nil || len(scs) == 0 {
		t.Fatalf("chaos scenario selection: %v (%d found)", err, len(scs))
	}
	for _, shards := range []int{1, 4} {
		prevShards, prevCfg, prevOn := topo.DefaultShards, tracing.GetDefaultConfig(), tracing.Enabled()
		before := map[*tracing.Tracer]bool{}
		for _, tr := range tracing.DefaultHub.Tracers() {
			before[tr] = true
		}
		topo.DefaultShards = shards
		tracing.SetDefaultConfig(tracing.Config{Seed: 1, SampleProb: 0.25})
		tracing.Enable()
		results := scenario.RunAll(scs, netsim.DefaultCostModel(), 1)
		topo.DefaultShards = prevShards
		tracing.SetDefaultConfig(prevCfg)
		tracing.SetEnabled(prevOn)

		for i := range results {
			r := &results[i]
			if !r.OK() {
				t.Errorf("%s (traced, %d shards): run=%v check=%v", r.Name, shards, r.Err, r.CheckErr)
			} else if want := goldenFingerprints[r.Name]; r.Fingerprint != want {
				t.Errorf("%s (%d shards): traced fingerprint %s != golden %s", r.Name, shards, r.Fingerprint, want)
			}
		}
		var trs []*tracing.Tracer
		events := 0
		for _, tr := range tracing.DefaultHub.Tracers() {
			if before[tr] {
				continue
			}
			tracing.DefaultHub.Detach(tr)
			tr.Flush()
			events += len(tr.Transcript())
			trs = append(trs, tr)
		}
		if len(trs) < len(scs) || events == 0 {
			t.Fatalf("%d shards: %d chaos scenarios left %d tracers with %d events", shards, len(scs), len(trs), events)
		}
		var doc bytes.Buffer
		if err := tracing.WriteChromeAll(&doc, trs); err != nil {
			t.Fatalf("%d shards: WriteChromeAll: %v", shards, err)
		}
		if err := tracing.LintChrome(&doc); err != nil {
			t.Fatalf("%d shards: Chrome export of %d nets (%d events) fails lint: %v", shards, len(trs), events, err)
		}
	}
}
