package netsim

import (
	"testing"

	"github.com/switchware/activebridge/internal/ethernet"
)

func mac(last byte) ethernet.MAC { return ethernet.MAC{0x02, 0, 0, 0, 0, last} }

func frameBytes(t *testing.T, dst, src ethernet.MAC, payload int) []byte {
	t.Helper()
	f := ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: make([]byte, payload)}
	raw, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBroadcastDelivery(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	var rx [3]int
	nics := make([]*NIC, 3)
	for i := range nics {
		i := i
		nics[i] = NewNIC(s, "eth", mac(byte(i+1)))
		nics[i].SetRecv(func(*NIC, []byte) { rx[i]++ })
		seg.Attach(nics[i])
	}
	raw := frameBytes(t, ethernet.Broadcast, mac(1), 100)
	s.Schedule(0, func() { nics[0].Send(raw) })
	s.RunAll()
	if rx[0] != 0 {
		t.Errorf("sender received its own frame")
	}
	if rx[1] != 1 || rx[2] != 1 {
		t.Errorf("rx = %v, want broadcast to both others", rx)
	}
}

func TestUnicastFiltering(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	c := NewNIC(s, "c", mac(3))
	var gotB, gotC int
	b.SetRecv(func(*NIC, []byte) { gotB++ })
	c.SetRecv(func(*NIC, []byte) { gotC++ })
	seg.Attach(a)
	seg.Attach(b)
	seg.Attach(c)
	raw := frameBytes(t, mac(2), mac(1), 64)
	s.Schedule(0, func() { a.Send(raw) })
	s.RunAll()
	if gotB != 1 {
		t.Errorf("b received %d, want 1", gotB)
	}
	if gotC != 0 {
		t.Errorf("c received %d (not promiscuous, not addressed), want 0", gotC)
	}
	if c.RxFiltered != 1 {
		t.Errorf("c.RxFiltered = %d, want 1", c.RxFiltered)
	}
}

func TestPromiscuousSeesEverything(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	p := NewNIC(s, "p", mac(9))
	p.Promiscuous = true
	got := 0
	p.SetRecv(func(*NIC, []byte) { got++ })
	seg.Attach(a)
	seg.Attach(p)
	s.Schedule(0, func() {
		a.Send(frameBytes(t, mac(2), mac(1), 64)) // not addressed to p
		a.Send(frameBytes(t, ethernet.Broadcast, mac(1), 64))
	})
	s.RunAll()
	if got != 2 {
		t.Errorf("promiscuous NIC saw %d frames, want 2", got)
	}
}

// TestMulticastSubscription pins that a non-promiscuous (host) NIC
// subscribes to no multicast group: it accepts only unicast-to-self and
// broadcast, so a multicast frame such as a BPDU never reaches it.
func TestMulticastSubscription(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	got := 0
	b.SetRecv(func(*NIC, []byte) { got++ })
	seg.Attach(a)
	seg.Attach(b)
	raw := frameBytes(t, ethernet.AllBridges, mac(1), 64)
	s.Schedule(0, func() { a.Send(raw) })
	s.RunAll()
	if got != 0 {
		t.Errorf("host NIC received multicast")
	}
}

func TestWireTimeAt100Mbps(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	var arrived Time
	b.SetRecv(func(*NIC, []byte) { arrived = s.Now() })
	seg.Attach(a)
	seg.Attach(b)
	raw := frameBytes(t, mac(2), mac(1), 1000)
	s.Schedule(0, func() { a.Send(raw) })
	s.RunAll()
	// 1018 bytes on the wire + preamble/IFG overhead at 100 Mb/s.
	bits := len(raw)*8 + ethernet.OverheadBits
	want := Time(float64(bits) / 100e6 * 1e9).Add(seg.Propagation)
	if arrived != want {
		t.Errorf("arrival = %v, want %v", arrived, want)
	}
}

func TestMediumSerializes(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	c := NewNIC(s, "c", mac(3))
	var arrivals []Time
	c.SetRecv(func(*NIC, []byte) { arrivals = append(arrivals, s.Now()) })
	seg.Attach(a)
	seg.Attach(b)
	seg.Attach(c)
	raw := frameBytes(t, mac(3), mac(1), 1000)
	s.Schedule(0, func() {
		a.Send(raw)
		b.Send(frameBytes(t, mac(3), mac(2), 1000))
	})
	s.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := arrivals[1].Sub(arrivals[0])
	per := seg.wireTime(len(raw))
	if gap != per {
		t.Errorf("second frame gap = %v, want serialized %v", gap, per)
	}
}

func TestTxQueueOverflowDrops(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	a.TxQueueLimit = 4
	b := NewNIC(s, "b", mac(2))
	got := 0
	b.SetRecv(func(*NIC, []byte) { got++ })
	seg.Attach(a)
	seg.Attach(b)
	raw := frameBytes(t, mac(2), mac(1), 1000)
	s.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			a.Send(raw)
		}
	})
	s.RunAll()
	// One frame is in transmission immediately, 4 queue, 5 drop.
	if a.TxDrops != 5 {
		t.Errorf("TxDrops = %d, want 5", a.TxDrops)
	}
	if got != 5 {
		t.Errorf("delivered = %d, want 5", got)
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	s := New()
	seg1 := NewSegment(s, "lan1")
	seg2 := NewSegment(s, "lan2")
	a := NewNIC(s, "a", mac(1))
	seg1.Attach(a)
	defer func() {
		if recover() == nil {
			t.Error("second Attach did not panic")
		}
	}()
	seg2.Attach(a)
}

func TestSendUnattachedPanics(t *testing.T) {
	s := New()
	a := NewNIC(s, "a", mac(1))
	defer func() {
		if recover() == nil {
			t.Error("Send on unattached NIC did not panic")
		}
	}()
	a.Send(make([]byte, 64))
}

func TestSegmentStats(t *testing.T) {
	s := New()
	seg := NewSegment(s, "lan1")
	a := NewNIC(s, "a", mac(1))
	b := NewNIC(s, "b", mac(2))
	b.SetRecv(func(*NIC, []byte) {})
	seg.Attach(a)
	seg.Attach(b)
	raw := frameBytes(t, mac(2), mac(1), 500)
	s.Schedule(0, func() { a.Send(raw); a.Send(raw) })
	s.RunAll()
	if seg.Frames != 2 || seg.Bytes != uint64(2*len(raw)) {
		t.Errorf("seg stats frames=%d bytes=%d", seg.Frames, seg.Bytes)
	}
	if a.TxFrames != 2 || b.RxFrames != 2 {
		t.Errorf("nic stats tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
	if seg.Utilization(Duration(s.Now())) <= 0 {
		t.Error("utilization should be positive")
	}
}

func TestCostModelHelpers(t *testing.T) {
	m := DefaultCostModel()
	if m.KernelCrossing(1000) != m.KernelPerFrame+1000*m.KernelPerByte {
		t.Error("KernelCrossing arithmetic")
	}
	if m.HostStack(100) != m.HostStackPerFrame+100*m.HostStackPerByte {
		t.Error("HostStack arithmetic")
	}
	if m.VMCost(10, 100) != m.VMPerDispatch+10*m.VMPerInstr+100*m.VMPerAllocByte {
		t.Error("VMCost arithmetic")
	}
}
