package netsim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", got)
		}
	}
}

func TestSchedulePastClamps(t *testing.T) {
	s := New()
	var ranAt Time
	s.Schedule(100, func() {
		s.Schedule(50, func() { ranAt = s.Now() }) // in the past
	})
	s.RunAll()
	if ranAt != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", ranAt)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(10, func() { ran++ })
	s.Schedule(20, func() { ran++ })
	s.Schedule(30, func() { ran++ })
	n := s.Run(20)
	if n != 2 || ran != 2 {
		t.Errorf("Run(20) executed %d (ran=%d), want 2", n, ran)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	// Clock does not advance past deadline while events remain beyond it.
	if s.Now() != 20 {
		t.Errorf("Now = %v, want 20", s.Now())
	}
}

func TestRunAdvancesToDeadlineWhenIdle(t *testing.T) {
	s := New()
	s.Run(500)
	if s.Now() != 500 {
		t.Errorf("Now = %v, want 500", s.Now())
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var at Time
	s.Schedule(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestStop(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(1, func() { ran++; s.Stop() })
	s.Schedule(2, func() { ran++ })
	s.RunAll()
	if ran != 1 {
		t.Errorf("ran = %d after Stop, want 1", ran)
	}
}

func TestMaxEvents(t *testing.T) {
	s := New()
	s.MaxEvents = 5
	var rearm func()
	n := 0
	rearm = func() { n++; s.After(1, rearm) }
	s.After(1, rearm)
	s.RunAll()
	if n != 5 {
		t.Errorf("executed %d events, want MaxEvents=5", n)
	}
}

func TestCPUSerializes(t *testing.T) {
	s := New()
	c := NewCPU(s)
	var done []Time
	s.Schedule(0, func() {
		c.Exec(100, func() { done = append(done, s.Now()) })
		c.Exec(100, func() { done = append(done, s.Now()) })
	})
	s.RunAll()
	if len(done) != 2 || done[0] != 100 || done[1] != 200 {
		t.Errorf("completion times = %v, want [100 200]", done)
	}
	if c.Busy != 200 {
		t.Errorf("Busy = %v, want 200", c.Busy)
	}
}

func TestCPUIdleGap(t *testing.T) {
	s := New()
	c := NewCPU(s)
	var second Time
	s.Schedule(0, func() { c.Exec(10, func() {}) })
	s.Schedule(1000, func() { c.Exec(10, func() { second = s.Now() }) })
	s.RunAll()
	if second != 1010 {
		t.Errorf("second completion = %v, want 1010 (no carryover of idle time)", second)
	}
}

func TestCPUQueueDelayAndUtilization(t *testing.T) {
	s := New()
	c := NewCPU(s)
	s.Schedule(0, func() {
		c.Exec(500, func() {})
		// Work submitted behind a 500 ns job waits for it.
		if done := c.Exec(0, func() {}); done != 500 {
			t.Errorf("queued job completes at %v, want 500", done)
		}
	})
	s.RunAll()
	if u := c.Utilization(1000); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
	if u := c.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %v, want 0", u)
	}
}
