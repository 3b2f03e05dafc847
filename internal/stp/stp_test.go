package stp

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"github.com/switchware/activebridge/internal/ethernet"
)

func bid(prio uint16, last byte) BridgeID {
	return MakeBridgeID(prio, ethernet.MAC{0x02, 0xbb, 0, 0, last, 0})
}

func TestBridgeIDComposition(t *testing.T) {
	mac := ethernet.MAC{0x02, 0xbb, 0, 0, 7, 0}
	id := MakeBridgeID(0x8000, mac)
	if id.Priority() != 0x8000 || id.MAC() != mac {
		t.Errorf("id decomposition: %v", id)
	}
	// Lower priority wins regardless of MAC.
	if !(MakeBridgeID(1, ethernet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) <
		MakeBridgeID(2, ethernet.MAC{0, 0, 0, 0, 0, 1})) {
		t.Error("priority must dominate MAC")
	}
}

func TestVectorOrdering(t *testing.T) {
	base := Vector{RootID: bid(0x8000, 1), Cost: 10, Bridge: bid(0x8000, 2), Port: 1}
	better := []Vector{
		{RootID: bid(0x7000, 9), Cost: 99, Bridge: bid(0xffff, 9), Port: 9}, // lower root
		{RootID: base.RootID, Cost: 9, Bridge: bid(0xffff, 9), Port: 9},     // lower cost
		{RootID: base.RootID, Cost: 10, Bridge: bid(0x8000, 1), Port: 9},    // lower bridge
		{RootID: base.RootID, Cost: 10, Bridge: base.Bridge, Port: 0},       // lower port
	}
	for i, v := range better {
		if !v.Better(base) {
			t.Errorf("case %d: %+v should beat %+v", i, v, base)
		}
		if base.Better(v) {
			t.Errorf("case %d: ordering not antisymmetric", i)
		}
	}
	if base.Better(base) {
		t.Error("Better must be irreflexive")
	}
}

func TestVectorOrderingTotalProperty(t *testing.T) {
	f := func(r1, r2 uint64, c1, c2 uint32, b1, b2 uint64, p1, p2 uint16) bool {
		v := Vector{RootID: BridgeID(r1), Cost: c1, Bridge: BridgeID(b1), Port: p1}
		w := Vector{RootID: BridgeID(r2), Cost: c2, Bridge: BridgeID(b2), Port: p2}
		if v == w {
			return !v.Better(w) && !w.Better(v)
		}
		return v.Better(w) != w.Better(v) // exactly one direction
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBPDUIEEERoundTrip(t *testing.T) {
	// Read each field back at the offset bpdu.go's layout table gives.
	cfg := Config{}.DefaultTimers()
	f := func(r uint64, c uint32, b uint64, p uint16) bool {
		v := Vector{RootID: BridgeID(r), Cost: c, Bridge: BridgeID(b), Port: p}
		raw := EncodeIEEE(v, cfg)
		be := binary.BigEndian
		got := Vector{
			RootID: BridgeID(be.Uint64(raw[5:13])),
			Cost:   be.Uint32(raw[13:17]),
			Bridge: BridgeID(be.Uint64(raw[17:25])),
			Port:   be.Uint16(raw[25:27]),
		}
		return len(raw) == IEEEBPDULen && be.Uint32(raw[0:4]) == 0 && got == v &&
			be.Uint16(raw[29:31]) == 20*256 && be.Uint16(raw[31:33]) == 2*256 && be.Uint16(raw[33:35]) == 15*256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// converged builds a Graph from per-bridge priorities (bridge i gets MAC
// byte i+1) and port-to-LAN lists, and returns its views.
func converged(prios []uint16, ports ...[]int) []View {
	g := Graph{Ports: ports}
	for i, p := range prios {
		g.Bridges = append(g.Bridges, bid(p, byte(i+1)))
	}
	return Converged(g)
}

func wantViews(t *testing.T, got []View, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d views, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("bridge %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func TestTwoBridgeElection(t *testing.T) {
	// One shared LAN: the lower priority is root, the other reaches it in
	// one hop through its only port.
	v := converged([]uint16{200, 100}, []int{0}, []int{0})
	wantViews(t, v,
		"root=006402bb00000200 cost=19 rp=0 p0=1",
		"root=006402bb00000200 cost=0 rp=-1 p0=2")
	if v[0].Root != bid(100, 2) {
		t.Errorf("root = %v", v[0].Root)
	}
}

func TestLineTopologyCosts(t *testing.T) {
	// 0 -- 1 -- 2 over LANs 0 and 1: costs accumulate one path cost per
	// hop, and a line has no loop, so no port is blocked.
	wantViews(t, converged([]uint16{100, 200, 300}, []int{0}, []int{0, 1}, []int{1}),
		"root=006402bb00000100 cost=0 rp=-1 p0=2",
		"root=006402bb00000100 cost=19 rp=0 p0=1 p1=2",
		"root=006402bb00000100 cost=38 rp=0 p0=1")
}

func TestTriangleBlocksOnePort(t *testing.T) {
	// Three bridges, three point-to-point LANs: exactly one port in the
	// whole network is blocked, on the LAN between the two non-roots,
	// at the higher bridge.
	v := converged([]uint16{100, 200, 300}, []int{0, 2}, []int{0, 1}, []int{1, 2})
	wantViews(t, v,
		"root=006402bb00000100 cost=0 rp=-1 p0=2 p1=2",
		"root=006402bb00000100 cost=19 rp=0 p0=1 p1=2",
		"root=006402bb00000100 cost=19 rp=1 p0=0 p1=1")
	blocked := 0
	for _, view := range v {
		for _, r := range view.Roles {
			if r == RoleBlocked {
				blocked++
			}
		}
	}
	if blocked != 1 {
		t.Errorf("blocked ports = %d, want 1", blocked)
	}
}

func TestParallelLANsRootPortFollowsDesignatedPort(t *testing.T) {
	// Two bridges joined by two LANs. The root port is the one whose LAN
	// the root designates through its lower port, whichever of the
	// non-root's own ports that is: 802.1D compares the designated port
	// ID before the receiving port's.
	wantViews(t, converged([]uint16{100, 200}, []int{0, 1}, []int{0, 1}),
		"root=006402bb00000100 cost=0 rp=-1 p0=2 p1=2",
		"root=006402bb00000100 cost=19 rp=0 p0=1 p1=0")
	wantViews(t, converged([]uint16{100, 200}, []int{0, 1}, []int{1, 0}),
		"root=006402bb00000100 cost=0 rp=-1 p0=2 p1=2",
		"root=006402bb00000100 cost=19 rp=1 p0=0 p1=1")
}

func TestThreeBridgesOneLAN(t *testing.T) {
	// On a shared LAN only the root's port is designated; the others take
	// it as root port and nothing is blocked.
	wantViews(t, converged([]uint16{300, 100, 200}, []int{0}, []int{0}, []int{0}),
		"root=006402bb00000200 cost=19 rp=0 p0=1",
		"root=006402bb00000200 cost=0 rp=-1 p0=2",
		"root=006402bb00000200 cost=19 rp=0 p0=1")
}

func TestRootFailureReelection(t *testing.T) {
	// A line 0 -- 1 -- 2 whose root has gone: it is absent from the
	// graph, its port's LAN still up, and the next lowest ID takes over.
	v := converged([]uint16{200, 300}, []int{0, 1}, []int{1})
	wantViews(t, v,
		"root=00c802bb00000100 cost=0 rp=-1 p0=2 p1=2",
		"root=00c802bb00000100 cost=19 rp=0 p0=1")
}

func TestPartitionHasTwoRoots(t *testing.T) {
	// A cut LAN (-1) splits the line into two components, each electing
	// its own lowest ID; a port on no live LAN is designated.
	wantViews(t, converged([]uint16{100, 200, 300, 400}, []int{0}, []int{0, -1}, []int{-1, 1}, []int{1}),
		"root=006402bb00000100 cost=0 rp=-1 p0=2",
		"root=006402bb00000100 cost=19 rp=0 p0=1 p1=2",
		"root=012c02bb00000300 cost=0 rp=-1 p0=2 p1=2",
		"root=012c02bb00000300 cost=19 rp=0 p0=1")
}
