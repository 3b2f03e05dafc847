package netsim

import (
	"testing"
)

// TestTxQueueOverflowNotification pins the overflow contract: a burst
// of sends accepts the frame on the wire plus a full transmit queue, and
// reports every loss through both the TxDrops counter and the installed
// drop callback, with the dropped frame's bytes visible to the callback.
func TestTxQueueOverflowNotification(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	var delivered int
	b.SetRecv(func(*NIC, []byte) { delivered++ })
	seg.Attach(a)
	seg.Attach(b)

	var drops int
	var droppedLen int
	a.SetTxDropFn(func(n *NIC, raw []byte) {
		if n != a {
			t.Errorf("drop callback got NIC %s, want a", n.Name)
		}
		drops++
		droppedLen = len(raw)
	})

	raw := frameBytes(t, mac(2), mac(1), 100)
	const burst = txQueueLimit + 5
	s.Schedule(0, func() {
		for i := 0; i < burst; i++ {
			a.Send(raw)
		}
	})
	s.RunAll()

	// One frame transmits immediately, txQueueLimit queue, the rest
	// overflow.
	const wantDelivered = txQueueLimit + 1
	if delivered != wantDelivered {
		t.Errorf("delivered = %d, want %d", delivered, wantDelivered)
	}
	if drops != burst-wantDelivered {
		t.Errorf("drop callbacks = %d, want %d", drops, burst-wantDelivered)
	}
	if a.TxDrops != uint64(burst-wantDelivered) {
		t.Errorf("TxDrops = %d, want %d", a.TxDrops, burst-wantDelivered)
	}
	if droppedLen != len(raw) {
		t.Errorf("callback saw %d bytes, want the %d-byte frame", droppedLen, len(raw))
	}
}

// TestLinkDownSuppressesBothDirections: a NIC with its link down neither
// transmits (counted as fault drops) nor receives, and healing the link
// restores both directions.
func TestLinkDownSuppressesBothDirections(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	var got int
	b.SetRecv(func(*NIC, []byte) { got++ })
	seg.Attach(a)
	seg.Attach(b)

	a.SetLinkDown(true)
	if !a.LinkDown() {
		t.Fatal("LinkDown not reported")
	}
	raw := frameBytes(t, mac(2), mac(1), 64)
	s.Schedule(0, func() { a.Send(raw) })
	s.RunAll()
	if got != 0 {
		t.Errorf("frame crossed a downed transmit link")
	}
	if a.FaultDrops == 0 {
		t.Errorf("transmit on a downed link not counted as a fault drop")
	}

	// Receive side: b's link down eats the delivery.
	a.SetLinkDown(false)
	b.SetLinkDown(true)
	s.Schedule(s.Now()+1, func() { a.Send(raw) })
	s.RunAll()
	if got != 0 {
		t.Errorf("frame delivered through a downed receive link")
	}
	if b.FaultDrops == 0 {
		t.Errorf("receive on a downed link not counted as a fault drop")
	}

	b.SetLinkDown(false)
	s.Schedule(s.Now()+1, func() { a.Send(raw) })
	s.RunAll()
	if got != 1 {
		t.Errorf("delivery did not resume after link heal: got %d", got)
	}
}

// TestSegmentFaultFilter drives each medium-level verdict, and a downed
// segment, through the segment's own counters: drop and a cut destroy
// the frame, corrupt occupies the wire but reaches no adapter (and
// counts separately), duplicate delivers twice.
func TestSegmentFaultFilter(t *testing.T) {
	cases := []struct {
		name     string
		action   FaultAction
		down     bool
		want     uint64
		drops    uint64
		corrupts uint64
		dups     uint64
	}{
		{"none", FaultNone, false, 1, 0, 0, 0},
		{"drop", FaultDrop, false, 0, 1, 0, 0},
		{"corrupt", FaultCorrupt, false, 0, 0, 1, 0},
		{"duplicate", FaultDuplicate, false, 2, 0, 0, 1},
		{"down", FaultNone, true, 0, 1, 0, 0},
	}
	for _, c := range cases {
		s := New()
		seg := NewSegment(s, "lan")
		a := NewNIC(s, "a", mac(1))
		b := NewNIC(s, "b", mac(2))
		var got uint64
		b.SetRecv(func(*NIC, []byte) { got++ })
		seg.Attach(a)
		seg.Attach(b)
		action := c.action
		seg.SetFault(func([]byte) FaultAction { return action })
		seg.SetDown(c.down)
		if seg.Down() != c.down {
			t.Fatalf("%s: Down not reported", c.name)
		}
		raw := frameBytes(t, mac(2), mac(1), 64)
		s.Schedule(0, func() { a.Send(raw) })
		s.RunAll()
		if got != c.want || b.RxFrames != c.want {
			t.Errorf("%s: handler saw %d and adapter accepted %d frames, want %d",
				c.name, got, b.RxFrames, c.want)
		}
		if seg.Frames != 1 {
			t.Errorf("%s: segment carried %d frames, want 1", c.name, seg.Frames)
		}
		if seg.FaultDrops != c.drops || seg.FaultCorrupts != c.corrupts || seg.FaultDups != c.dups {
			t.Errorf("%s: counters drop=%d corrupt=%d dup=%d, want %d/%d/%d",
				c.name, seg.FaultDrops, seg.FaultCorrupts, seg.FaultDups, c.drops, c.corrupts, c.dups)
		}
	}
}
