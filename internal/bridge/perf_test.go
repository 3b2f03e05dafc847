package bridge

import (
	"testing"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
)

// forwardSwitchlet is the minimal VM data path: receive a frame, send it
// out the other port — the inner loop of every forwarding experiment.
const forwardSwitchlet = `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle
`

// TestFrameDispatchAllocBudget is the allocation-budget regression test
// for the bridge frame path: steady-state VM forwarding of one frame —
// kernel-cost accounting, VM invocation, pooled send collection, CPU
// completion, transmit and delivery — must stay within a tiny constant
// budget. The budget is 0: the frame-string and port-number boxes come
// from the bridge's slab boxers, whose one allocation per slab rounds
// to zero in AllocsPerRun's integral average. Before the
// zero-allocation overhaul this path cost hundreds of allocations per
// frame; before the optimizing-tier PR it was 2 (frame-string box and
// invoke residue).
func TestFrameDispatchAllocBudget(t *testing.T) { frameDispatchAllocBudget(t, nil) }

// TestTracedFrameDispatchAllocBudget is the tracing plane's overhead
// budget on the same path: with a tracer attached whose traces are not
// sampled, every emit site still records into the flight ring, and the
// budget stays 0 allocs/frame — events carry operands, so nothing is
// formatted for a ring that overwrites it 256 events later.
func TestTracedFrameDispatchAllocBudget(t *testing.T) {
	tr := tracing.New(tracing.Config{Seed: 5, SampleProb: 1e-12})
	te := tr.Engine(0)
	frameDispatchAllocBudget(t, te)
	tr.Flush()
	if n := len(tr.Transcript()); n != 0 {
		t.Fatalf("unsampled run put %d events in the transcript", n)
	}
	te.DumpFlight("test", 0)
	have := kinds(tr.FlightDumps()[0].Events)
	for _, k := range []tracing.Kind{tracing.KindSend, tracing.KindWire, tracing.KindRx, tracing.KindDemux, tracing.KindVM, tracing.KindVerdict} {
		if have[k] == 0 {
			t.Errorf("flight ring has no %s event: the traced path was not exercised", k)
		}
	}
}

func frameDispatchAllocBudget(t *testing.T, te *tracing.Engine) {
	r := newRig(t)
	r.sim.SetTraceEngine(te)
	r.load(t, "Fwd", forwardSwitchlet)

	fr := ethernet.Frame{Dst: r.n2.MAC, Src: r.n1.MAC, Type: ethernet.TypeTest, Payload: make([]byte, 1024)}
	raw, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		r.n1.Send(raw)
		r.sim.RunAll()
	}
	cycle() // warm pools, arena, heap slab
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs > 0 {
		t.Fatalf("steady-state frame dispatch allocs/frame = %v, want 0", allocs)
	}
	if r.rx2 == 0 {
		t.Fatal("no frames forwarded")
	}
}

// TestForwardingFastPathReusesFrame verifies the forwarding fast path
// sends the identical bytes it received (FCS preserved, no re-marshal):
// the frame arriving at the far station must be byte-identical to the one
// sent, including its checksum.
func TestForwardingFastPathReusesFrame(t *testing.T) {
	r := newRig(t)
	r.load(t, "Fwd", forwardSwitchlet)

	fr := ethernet.Frame{Dst: r.n2.MAC, Src: r.n1.MAC, Type: ethernet.TypeTest, Payload: []byte{9, 8, 7, 6}}
	raw, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.n2.SetRecv(func(_ *netsim.NIC, b []byte) { got = append([]byte(nil), b...) })
	r.sim.Schedule(r.sim.Now()+1, func() { r.n1.Send(raw) })
	r.run(50 * netsim.Millisecond)
	if got == nil {
		t.Fatal("frame not forwarded")
	}
	if string(got) != string(raw) {
		t.Fatalf("forwarded frame differs from original:\n got %x\nwant %x", got, raw)
	}
}

// TestUnicastFastPathStillHonorsDstHandlers pins unicast demux: a unicast
// destination registration intercepts its frames, and clearing it returns
// them to the default handler.
func TestUnicastFastPathStillHonorsDstHandlers(t *testing.T) {
	r := newRig(t)
	r.load(t, "Fwd", forwardSwitchlet)
	hits := 0
	target := ethernet.MAC{2, 0, 0, 0, 0, 9}
	probe := FrameHandler{Name: "probe", Native: func([]byte, int) { hits++ }}
	if err := r.b.SetDstHandler(target, probe); err != nil {
		t.Fatal(err)
	}
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, target, 64) })
	r.run(50 * netsim.Millisecond)
	if hits != 1 {
		t.Fatalf("unicast dst handler hits = %d, want 1", hits)
	}
	// And clearing it restores the default path.
	r.b.ClearDstHandler(target)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, target, 64) })
	r.run(50 * netsim.Millisecond)
	if hits != 1 {
		t.Fatalf("cleared dst handler still firing: hits = %d", hits)
	}
	if r.rx2 < 1 {
		t.Fatal("default handler did not forward after clear")
	}
}

// BenchmarkBridgeForward measures the full per-frame bridge pipeline:
// NIC receive, demux, VM switchlet execution, send collection, CPU
// completion and transmission.
func BenchmarkBridgeForward(b *testing.B) {
	sim := netsim.New()
	br := New(sim, "br", 1, 2, netsim.DefaultCostModel())
	lan1 := netsim.NewSegment(sim, "lan1")
	lan2 := netsim.NewSegment(sim, "lan2")
	n1 := netsim.NewNIC(sim, "n1", ethernet.MAC{2, 0, 0, 0, 0, 1})
	n2 := netsim.NewNIC(sim, "n2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	n1.Promiscuous = true
	n2.Promiscuous = true
	n1.SetRecv(func(*netsim.NIC, []byte) {})
	n2.SetRecv(func(*netsim.NIC, []byte) {})
	lan1.Attach(n1)
	lan1.Attach(br.Port(0))
	lan2.Attach(n2)
	lan2.Attach(br.Port(1))
	if err := compileAndLoad(br, "Fwd", forwardSwitchlet); err != nil {
		b.Fatal(err)
	}
	fr := ethernet.Frame{Dst: ethernet.MAC{2, 0, 0, 0, 0, 2}, Src: ethernet.MAC{2, 0, 0, 0, 0, 1}, Type: ethernet.TypeTest, Payload: make([]byte, 1024)}
	raw, err := fr.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n1.Send(raw)
		sim.RunAll()
	}
}
