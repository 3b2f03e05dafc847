package netsim

import (
	"fmt"
	"testing"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/tracing"
)

// TestSteadyStateForwardingZeroAllocs is the allocation-budget regression
// test for the event queue and NIC pipeline: once the heap, payload slab
// and transmit queues are warm, pushing a frame across a segment and
// running the resulting events does zero Go-heap work. The value-typed
// 4-ary heap, the payload free list, the inline deliver events and the
// reclaiming transmit queue are what this pins down.
func TestSteadyStateForwardingZeroAllocs(t *testing.T) { forwardingZeroAllocs(t, nil) }

// TestTracedForwardingZeroAllocs is the tracing plane's overhead budget
// on the same pipeline: with a tracer attached whose traces are not
// sampled, send, wire and rx events still enter the flight ring, and
// the cycle still does zero Go-heap work because events carry operands
// and format nothing until they are read.
func TestTracedForwardingZeroAllocs(t *testing.T) {
	tr := tracing.New(tracing.Config{Seed: 5, SampleProb: 1e-12})
	te := tr.Engine(0)
	forwardingZeroAllocs(t, te)
	tr.Flush()
	if n := len(tr.Transcript()); n != 0 {
		t.Fatalf("unsampled run put %d events in the transcript", n)
	}
	te.DumpFlight("test", 0)
	have := map[tracing.Kind]bool{}
	for _, ev := range tr.FlightDumps()[0].Events {
		have[ev.Kind] = true
	}
	if !have[tracing.KindSend] || !have[tracing.KindWire] || !have[tracing.KindRx] {
		t.Fatalf("flight ring kinds = %v: the traced path was not exercised", have)
	}
}

func forwardingZeroAllocs(t *testing.T, te *tracing.Engine) {
	sim := New()
	sim.SetTraceEngine(te)
	seg := NewSegment(sim, "lan")
	a := NewNIC(sim, "a", mac(1))
	b := NewNIC(sim, "b", mac(2))
	seg.Attach(a)
	seg.Attach(b)
	received := 0
	b.SetRecv(func(*NIC, []byte) { received++ })
	raw := frameBytes(t, mac(2), mac(1), 256)

	cycle := func() {
		a.Send(raw)
		sim.RunAll()
	}
	cycle() // warm heap, slab and queues
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("steady-state forwarding allocs/cycle = %v, want 0", allocs)
	}
	if received == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestHeapOrderingRandomized cross-checks the 4-ary heap against the
// (time, seq) total order with an adversarial schedule: many ties, past
// timestamps, and interleaved pops.
func TestHeapOrderingRandomized(t *testing.T) {
	sim := New()
	var got []int
	// Deterministic pseudo-random times with heavy ties.
	x := uint32(12345)
	times := make([]Time, 300)
	for i := range times {
		x = x*1664525 + 1013904223
		times[i] = Time(x % 16)
	}
	for i, at := range times {
		i := i
		sim.Schedule(at, func() { got = append(got, i) })
	}
	sim.RunAll()
	if len(got) != len(times) {
		t.Fatalf("executed %d events, want %d", len(got), len(times))
	}
	for k := 1; k < len(got); k++ {
		a, b := got[k-1], got[k]
		if times[a] > times[b] {
			t.Fatalf("time order violated at %d: event %d (t=%d) before %d (t=%d)", k, a, times[a], b, times[b])
		}
		if times[a] == times[b] && a > b {
			t.Fatalf("FIFO tie-break violated at %d: event %d before %d at t=%d", k, a, b, times[a])
		}
	}
}

// TestCPUBacklogZeroAllocs is the same budget for the CPU run queue: with
// 32 jobs outstanding, submitting one and completing one — a lane append,
// a promotion into the heap, a dispatch from the payload slab — does zero
// Go-heap work once the lane, heap and slab are warm.
func TestCPUBacklogZeroAllocs(t *testing.T) {
	sim := New()
	cpu := NewCPU(sim)
	completed := 0
	fn := func([]byte) { completed++ }
	raw := make([]byte, 64)
	for i := 0; i < 32; i++ {
		cpu.ExecBytes(100, fn, raw)
	}
	sim.MaxEvents = 1
	cycle := func() {
		cpu.ExecBytes(100, fn, raw)
		sim.Run(maxTime)
	}
	for i := 0; i < 256; i++ { // past the lane's first compaction
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("CPU backlog submit/complete allocs/cycle = %v, want 0", allocs)
	}
	if cpu.Backlog() != 32 || sim.QueueLen() != 1 || completed == 0 {
		t.Fatalf("Backlog=%d QueueLen=%d completed=%d, want 32/1/>0", cpu.Backlog(), sim.QueueLen(), completed)
	}
}

// BenchmarkEventQueue measures raw scheduler throughput on a monotone
// hold model: every push is the farthest event, so the push is free and
// only the pop sifts. It is the opposite of forwarding traffic — see
// BenchmarkEventCoreSaturatedCPU for that — and stays as the generic
// deep-heap reference.
func BenchmarkEventQueue(b *testing.B) {
	sim := New()
	fn := func() {}
	// Standing population of 1024 events, then steady churn.
	for i := 0; i < 1024; i++ {
		sim.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(sim.Now()+Time(1024), fn)
		sim.MaxEvents = 1
		sim.Run(sim.Now() + 1<<40)
	}
}

// BenchmarkEventCoreSaturatedCPU reproduces the event mix measured on a
// saturated bridge (fwd-stream, fabric-serial): one event in seven is a
// CPU completion a whole backlog of service times away, the other six
// are the frame's wire and NIC hops, each a few service-time fractions
// out. One op is one frame: the completion resubmits to keep the backlog
// standing and starts the six-hop chain.
func BenchmarkEventCoreSaturatedCPU(b *testing.B) {
	for _, backlog := range []int{32, 1024} {
		b.Run(fmt.Sprintf("backlog%d", backlog), func(b *testing.B) {
			const service = Duration(650_000) // ~1530 frames/s, as the paper's bridge
			sim := New()
			cpu := NewCPU(sim)
			raw := make([]byte, 1024)
			frames := 0
			var hop func()
			hops := 0
			hop = func() {
				if hops++; hops%6 != 0 {
					sim.Schedule(sim.Now().Add(service/10), hop)
				}
			}
			var complete func([]byte)
			complete = func(raw []byte) {
				if frames++; frames+backlog <= b.N {
					cpu.ExecBytes(service, complete, raw)
				}
				sim.Schedule(sim.Now().Add(service/10), hop)
			}
			for i := 0; i < backlog && i < b.N; i++ {
				cpu.ExecBytes(service, complete, raw)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sim.RunAll()
			if frames != b.N {
				b.Fatalf("completed %d frames, want %d", frames, b.N)
			}
		})
	}
}

// BenchmarkSegmentForward measures the full NIC -> segment -> NIC frame
// pipeline in events per second.
func BenchmarkSegmentForward(b *testing.B) {
	sim := New()
	seg := NewSegment(sim, "lan")
	src := NewNIC(sim, "src", mac(1))
	dst := NewNIC(sim, "dst", mac(2))
	seg.Attach(src)
	seg.Attach(dst)
	dst.SetRecv(func(*NIC, []byte) {})
	f := ethernet.Frame{Dst: mac(2), Src: mac(1), Type: ethernet.TypeTest, Payload: make([]byte, 1024)}
	raw, err := f.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(raw)
		sim.RunAll()
	}
}
