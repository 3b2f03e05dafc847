package bridge

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
)

// traceRig attaches a full-sampling tracer to a fresh rig's engine.
func traceRig(t *testing.T) (*rig, *tracing.Tracer) {
	t.Helper()
	r := newRig(t)
	tr := tracing.New(tracing.Config{Seed: 5, SampleProb: 1})
	r.sim.SetTraceEngine(tr.Engine(0))
	r.sim.OnQuiesce(tr.Flush)
	return r, tr
}

func kinds(evs []tracing.Event) map[tracing.Kind]int {
	m := map[tracing.Kind]int{}
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

// The happy frame path must leave a complete causal record: NIC send,
// wire transit, receive, demux decision, VM execution and verdict, all
// under one trace ID.
func TestTracedFramePathEvents(t *testing.T) {
	r, tr := traceRig(t)
	r.load(t, "Forward", `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 1 {
		t.Fatalf("frame not forwarded: rx2 = %d", r.rx2)
	}
	evs := tr.Transcript()
	have := kinds(evs)
	for _, k := range []tracing.Kind{tracing.KindSend, tracing.KindWire, tracing.KindRx, tracing.KindDemux, tracing.KindVM, tracing.KindVerdict} {
		if have[k] == 0 {
			t.Errorf("transcript missing %s event (have %v)", k, have)
		}
	}
	var traceID uint64
	for _, ev := range evs {
		if traceID == 0 {
			traceID = ev.Trace
		}
		if ev.Trace != traceID {
			t.Fatalf("transcript spans multiple trace IDs: %x and %x", traceID, ev.Trace)
		}
	}
	for _, ev := range evs {
		if ev.Kind == tracing.KindVM {
			if !strings.Contains(ev.Text(), "handler=vm-default") || !strings.Contains(ev.Text(), "steps=") {
				t.Errorf("vm event detail lacks handler/steps: %q", ev.Text())
			}
		}
		if ev.Kind == tracing.KindVerdict && !strings.Contains(ev.Text(), "forward") {
			t.Errorf("verdict detail = %q, want forward", ev.Text())
		}
	}
	if tr.DumpCount() != 0 {
		t.Errorf("healthy run produced %d flight dumps", tr.DumpCount())
	}
}

// A switchlet that exhausts its fuel must trap, and the trap must write
// a flight-recorder post-mortem whose tail contains the trap itself.
func TestVMTrapDumpsFlightRecorder(t *testing.T) {
	r, tr := traceRig(t)
	r.load(t, "Spin", `
let rec loop x = loop x
let handle pkt inport = loop 0
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.b.Stats.HandlerTraps != 1 {
		t.Fatalf("traps = %d, want 1", r.b.Stats.HandlerTraps)
	}
	dumps := tr.FlightDumps()
	if len(dumps) == 0 {
		t.Fatal("trap produced no flight-recorder dump")
	}
	d := dumps[0]
	if !strings.Contains(d.Reason, "vm trap") || !strings.Contains(d.Reason, "br") {
		t.Errorf("dump reason = %q, want vm trap at br", d.Reason)
	}
	have := kinds(d.Events)
	if have[tracing.KindTrap] == 0 {
		t.Errorf("dump lacks the trap event itself (have %v)", have)
	}
	if have[tracing.KindSend] == 0 || have[tracing.KindRx] == 0 {
		t.Errorf("dump lacks the frame's causal prefix (have %v)", have)
	}
	var sb strings.Builder
	tr.RenderDumps(&sb)
	if !strings.Contains(sb.String(), "trap") {
		t.Errorf("rendered dump missing trap line:\n%s", sb.String())
	}
	// The traced verdict for the trapped frame is a drop, not a forward.
	for _, ev := range tr.Transcript() {
		if ev.Kind == tracing.KindVerdict && ev.Text() != "trap-drop" {
			t.Errorf("verdict = %q, want trap-drop", ev.Text())
		}
	}
}

// A rejected switchlet load is a post-mortem moment too: the loader must
// mark the transcript and dump the flight ring.
func TestLoadRejectDumpsFlightRecorder(t *testing.T) {
	r, tr := traceRig(t)
	if err := r.b.LoadObjectBytes([]byte("not a switchlet object")); err == nil {
		t.Fatal("garbage object loaded without error")
	}
	r.run(netsim.Millisecond)
	dumps := tr.FlightDumps()
	if len(dumps) == 0 {
		t.Fatal("load rejection produced no flight dump")
	}
	if !strings.Contains(dumps[0].Reason, "load rejected") {
		t.Errorf("dump reason = %q, want switchlet load rejected", dumps[0].Reason)
	}
	// The reject happens outside any traced frame, so its mark carries no
	// sampled trace ID: it must appear in the flight ring, not the
	// transcript.
	found := false
	for _, ev := range dumps[0].Events {
		if ev.Kind == tracing.KindMark && strings.Contains(ev.Text(), "load-reject") {
			found = true
		}
	}
	if !found {
		t.Error("flight dump lacks load-reject mark")
	}
}
