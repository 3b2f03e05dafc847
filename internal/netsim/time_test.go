package netsim

import (
	"fmt"
	"math"
	"testing"

	"github.com/switchware/activebridge/internal/ethernet"
)

// TestTimeArithmeticEdges pins Time/Duration arithmetic at the extremes
// the sharded engine's saturating bounds depend on.
func TestTimeArithmeticEdges(t *testing.T) {
	if got := Time(5).Add(3 * Nanosecond); got != 8 {
		t.Fatalf("Add: got %d", int64(got))
	}
	if got := Time(8).Sub(Time(5)); got != 3*Nanosecond {
		t.Fatalf("Sub: got %v", got)
	}
	if got := Time(0).Add(-2 * Nanosecond); got != -2 {
		t.Fatalf("negative Add: got %d", int64(got))
	}
	// Saturating engine arithmetic must never wrap the sentinel.
	if got := satAdd(maxTime, Second); got != maxTime {
		t.Fatalf("satAdd(maxTime): got %d", int64(got))
	}
	if got := satAdd(maxTime-Time(Second), 2*Second); got != maxTime {
		t.Fatalf("satAdd near max: got %d", int64(got))
	}
	if got := satAdd(Time(7), 0); got != 7 {
		t.Fatalf("satAdd zero: got %d", int64(got))
	}
	// Plain Add wraps at the extreme (documented int64 semantics); the
	// engine therefore routes every horizon shift through satAdd.
	if got := Time(math.MaxInt64).Add(Nanosecond); got >= 0 {
		t.Fatalf("expected two's-complement wrap, got %d", int64(got))
	}
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds: got %v", got)
	}
}

// TestZeroDurationSelfTicks pins the semantics sharding depends on: an
// event that reschedules itself with After(0) runs again at the same
// instant, strictly after already pending events for that instant, and
// the clock never moves backwards.
func TestZeroDurationSelfTicks(t *testing.T) {
	sim := New()
	var order []string
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		order = append(order, fmt.Sprintf("tick%d", ticks))
		if ticks < 3 {
			sim.After(0, tick)
		}
	}
	sim.Schedule(10, tick)
	sim.Schedule(10, func() { order = append(order, "peer") })
	sim.Schedule(11, func() { order = append(order, "later") })
	sim.Run(Time(100))
	want := "[tick1 peer tick2 tick3 later]"
	if got := fmt.Sprintf("%v", order); got != want {
		t.Fatalf("order %v, want %v", got, want)
	}
	if sim.Now() != 100 {
		t.Fatalf("drained clock: %v", sim.Now())
	}
}

// TestSchedulePastOrdering pins the clamp's ordering contract: events
// scheduled strictly in the past run at the present instant, after
// pending same-instant events.
func TestSchedulePastOrdering(t *testing.T) {
	sim := New()
	var order []string
	sim.Schedule(50, func() {
		sim.Schedule(20, func() { order = append(order, "clamped") }) // in the past
		sim.Schedule(50, func() { order = append(order, "present") })
	})
	sim.Schedule(50, func() { order = append(order, "pending") })
	sim.Run(Time(100))
	want := "[pending clamped present]"
	if got := fmt.Sprintf("%v", order); got != want {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestSegmentUtilizationShardedAccounting drives a cut segment from both
// sides concurrently and pins that the owner-side serialization keeps
// the medium accounting exact: busy time equals the sum of the wire
// times of every transmitted frame, identical to the serial build, and
// utilization follows.
func TestSegmentUtilizationShardedAccounting(t *testing.T) {
	drive := func(simA, simB, ctl *Sim) *Segment {
		seg := NewSegment(simA, "cut")
		a := NewNIC(simA, "a", ethernet.MAC{2, 0, 0, 0, 3, 1})
		b := NewNIC(simB, "b", ethernet.MAC{2, 0, 0, 0, 3, 2})
		seg.Attach(a)
		seg.Attach(b)
		a.SetRecv(func(*NIC, []byte) {})
		b.SetRecv(func(*NIC, []byte) {})
		fa, _ := (&ethernet.Frame{Dst: b.MAC, Src: a.MAC, Type: ethernet.TypeTest, Payload: make([]byte, 600)}).Marshal()
		fb, _ := (&ethernet.Frame{Dst: a.MAC, Src: b.MAC, Type: ethernet.TypeTest, Payload: make([]byte, 200)}).Marshal()
		for i := 0; i < 40; i++ {
			at := Time(i) * Time(30*Microsecond)
			ctl.Schedule(at+1, func() { a.Send(fa) })
			ctl.Schedule(at+2, func() { b.Send(fb) })
		}
		ctl.Run(Time(10 * Millisecond))
		return seg
	}

	serial := New()
	s0 := drive(serial, serial, serial)

	c := NewCoordinator(2)
	s1 := drive(c.Shard(0), c.Shard(1), c.Control())

	wantBusy := Duration(0)
	wa := s0.wireTime(len(mustWire(t, 600)))
	wb := s0.wireTime(len(mustWire(t, 200)))
	wantBusy = 40*wa + 40*wb
	if s0.BusyTime != wantBusy {
		t.Fatalf("serial busy %v, want %v", s0.BusyTime, wantBusy)
	}
	if s1.BusyTime != s0.BusyTime || s1.Frames != s0.Frames || s1.Bytes != s0.Bytes {
		t.Fatalf("sharded medium accounting deviates: busy %v/%v frames %d/%d bytes %d/%d",
			s1.BusyTime, s0.BusyTime, s1.Frames, s0.Frames, s1.Bytes, s0.Bytes)
	}
	if got, want := s1.Utilization(10*Millisecond), s0.Utilization(10*Millisecond); got != want {
		t.Fatalf("utilization %v, want %v", got, want)
	}
	if u := s1.Utilization(0); u != 0 {
		t.Fatalf("zero-window utilization: %v", u)
	}
}

func mustWire(t *testing.T, payload int) []byte {
	t.Helper()
	raw, err := (&ethernet.Frame{Dst: ethernet.MAC{1}, Src: ethernet.MAC{2}, Type: ethernet.TypeTest, Payload: make([]byte, payload)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
