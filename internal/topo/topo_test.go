package topo

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/workload"
)

// twoLAN declares the paper's Figure 7 network: h1 -- lan1 -- br -- lan2 -- h2.
func twoLAN(kind BridgeKind) (*Graph, HostID, HostID, BridgeID) {
	g := New("two-lan")
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	br := g.AddBridge("", kind, 2)
	lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
	g.Link(h1, lan1)
	g.Link(br, lan1)
	g.Link(h2, lan2)
	g.Link(br, lan2)
	return g, h1, h2, br
}

func TestAutoAddressing(t *testing.T) {
	g, h1, h2, br := twoLAN(LearningBridge)
	net := g.MustBuild(netsim.DefaultCostModel())
	if got, want := net.Host(h1).MAC, (ethernet.MAC{2, 0, 0, 0, 0, 1}); got != want {
		t.Errorf("h1 MAC = %v, want %v", got, want)
	}
	if got, want := net.Host(h2).IP, (ipv4.Addr{10, 0, 0, 2}); got != want {
		t.Errorf("h2 IP = %v, want %v", got, want)
	}
	if got := net.Host(h1).Name; got != "h1" {
		t.Errorf("h1 name = %q", got)
	}
	if got := net.Bridge(br).Name; got != "br0" {
		t.Errorf("bridge name = %q", got)
	}
}

func TestNeighborsAutoInstalled(t *testing.T) {
	g, h1, h2, _ := twoLAN(LearningBridge)
	net := g.MustBuild(netsim.DefaultCostModel())
	net.Warm(h1, h2)
	// With static neighbors installed, a ping needs no ARP round-trip.
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 3)
	p.Run(net.Sim.Now() + netsim.Time(10*netsim.Second))
	if p.Completed() != 3 {
		t.Fatalf("pings completed = %d, want 3", p.Completed())
	}
}

func TestBuildDeterminism(t *testing.T) {
	run := func() string {
		g, h1, h2, _ := twoLAN(LearningBridge)
		net := g.MustBuild(netsim.DefaultCostModel())
		net.Warm(h1, h2)
		tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 1024, 256<<10)
		tr.Run(net.Sim.Now() + netsim.Time(600*netsim.Second))
		return net.Fingerprint()
	}
	fp1, fp2 := run(), run()
	if fp1 != fp2 {
		t.Fatalf("fingerprints differ across identical builds:\n %s\n %s", fp1, fp2)
	}
	if !strings.Contains(fp1, "br0[steps=") {
		t.Fatalf("fingerprint missing bridge state: %s", fp1)
	}
}

// TestUnreachedCapChangesNothing runs one net with no event cap and with
// a cap it never reaches: the run must be identical. The net is a 4-bridge
// spanning-tree ring with h1 and h2 sharing lan r0 and h3 on r2, so it
// has both one-receiver segments (the bridge-to-bridge lans) and a
// multi-receiver one (r0).
func TestUnreachedCapChangesNothing(t *testing.T) {
	run := func(maxEvents uint64) (fp string, executed uint64, now netsim.Time) {
		const n = 4
		g := New("capped-ring")
		var segs [n]SegmentID
		for i := range segs {
			segs[i] = g.AddSegment("")
		}
		for i := 0; i < n; i++ {
			br := g.AddBridge("", STPBridge, 2)
			g.Link(br, segs[i])
			g.Link(br, segs[(i+1)%n])
		}
		h1, h2, h3 := g.AddHost(""), g.AddHost(""), g.AddHost("")
		g.Link(h1, segs[0])
		g.Link(h2, segs[0])
		g.Link(h3, segs[2])
		net := g.MustBuild(netsim.DefaultCostModel())
		net.Sim.MaxEvents = maxEvents
		net.Sim.Run(netsim.Time(45 * netsim.Second)) // spanning-tree convergence
		for _, pair := range [][2]HostID{{h1, h3}, {h2, h1}} {
			p := workload.NewPinger(net.Host(pair[0]), net.Host(pair[1]).IP, 64, 3)
			p.Run(net.Sim.Now() + netsim.Time(10*netsim.Second))
			if p.Completed() != 3 {
				t.Fatalf("MaxEvents=%d: pings %v completed %d/3", maxEvents, pair, p.Completed())
			}
		}
		return net.Fingerprint(), net.Sim.Executed(), net.Sim.Now()
	}
	fp0, ex0, now0 := run(0)
	fp1, ex1, now1 := run(1 << 40)
	if fp0 != fp1 || ex0 != ex1 || now0 != now1 {
		t.Fatalf("an unreached cap changed the run:\n uncapped %s executed=%d now=%v\n capped   %s executed=%d now=%v",
			fp0, ex0, now0, fp1, ex1, now1)
	}
}

func TestWarmPrimesLearning(t *testing.T) {
	// A third LAN on the bridge sees the initial flood but nothing after
	// the warm-up settles the learning table.
	g := New("warm")
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	br := g.AddBridge("", LearningBridge, 3)
	lan1, lan2, lan3 := g.AddSegment(""), g.AddSegment(""), g.AddSegment("")
	g.Link(h1, lan1)
	g.Link(br, lan1)
	g.Link(h2, lan2)
	g.Link(br, lan2)
	g.Link(br, lan3)
	net := g.MustBuild(netsim.DefaultCostModel())
	net.Warm(h1, h2)
	before := net.Segment(lan3).Frames
	tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 1024, 64<<10)
	tr.Run(net.Sim.Now() + netsim.Time(60*netsim.Second))
	if !tr.Done() {
		t.Fatal("transfer incomplete")
	}
	if leaked := net.Segment(lan3).Frames - before; leaked != 0 {
		t.Errorf("warmed unicast exchange leaked %d frames onto an uninvolved LAN", leaked)
	}
}

func TestWarmProbeIsMinimalSegment(t *testing.T) {
	// The probe must be the smallest self-describing test-stream segment:
	// a 2-byte big-endian length prefix whose value is its own length.
	if p := WarmProbe(); len(p) != 2 || p[0] != 0 || p[1] != 2 {
		t.Fatalf("WarmProbe = %v, want the length prefix {0, 2}", WarmProbe())
	}
}

func TestLinkErrors(t *testing.T) {
	t.Run("bridge port overflow", func(t *testing.T) {
		g := New("overflow")
		b := g.AddBridge("", LearningBridge, 1)
		s1, s2 := g.AddSegment(""), g.AddSegment("")
		g.Link(b, s1)
		g.Link(b, s2)
		if _, err := g.Build(netsim.DefaultCostModel()); err == nil {
			t.Fatal("want error for more links than ports")
		}
	})
	t.Run("host double link", func(t *testing.T) {
		g := New("double")
		h := g.AddHost("")
		s1, s2 := g.AddSegment(""), g.AddSegment("")
		g.Link(h, s1)
		g.Link(h, s2)
		if _, err := g.Build(netsim.DefaultCostModel()); err == nil {
			t.Fatal("want error for host with two links")
		}
	})
	t.Run("unlinked host", func(t *testing.T) {
		g := New("unlinked")
		g.AddHost("")
		g.AddSegment("")
		if _, err := g.Build(netsim.DefaultCostModel()); err == nil {
			t.Fatal("want error for host never linked")
		}
	})
	t.Run("undeclared segment", func(t *testing.T) {
		g := New("bad-seg")
		h := g.AddHost("")
		g.Link(h, SegmentID(7))
		if _, err := g.Build(netsim.DefaultCostModel()); err == nil {
			t.Fatal("want error for undeclared segment")
		}
	})
}

func TestDuplicateAddressErrors(t *testing.T) {
	g := New("dup-mac")
	g.AddHost("a", WithMAC(ethernet.MAC{2, 0, 0, 0, 9, 9}))
	g.AddHost("b", WithMAC(ethernet.MAC{2, 0, 0, 0, 9, 9}), WithIP(ipv4.Addr{10, 1, 1, 1}))
	if _, err := g.Build(netsim.DefaultCostModel()); err == nil {
		t.Fatal("want error for duplicate MAC")
	}

	g2 := New("dup-ip")
	g2.AddHost("a", WithIP(ipv4.Addr{10, 1, 1, 1}))
	g2.AddHost("b", WithIP(ipv4.Addr{10, 1, 1, 1}))
	if _, err := g2.Build(netsim.DefaultCostModel()); err == nil {
		t.Fatal("want error for duplicate IP")
	}

	g3 := New("tap-shadows-host")
	g3.AddHost("") // auto MAC 02:00:00:00:00:01
	g3.AddTap("t", ethernet.MAC{2, 0, 0, 0, 0, 1})
	if _, err := g3.Build(netsim.DefaultCostModel()); err == nil {
		t.Fatal("want error for tap MAC shadowing a host")
	}

	g4 := New("dup-bridge-id")
	g4.AddBridge("", LearningBridge, 2)
	g4.AddBridge("", LearningBridge, 2, WithBridgeID(1)) // collides with auto id 1
	if _, err := g4.Build(netsim.DefaultCostModel()); err == nil {
		t.Fatal("want error for duplicate bridge identity")
	}
}

func TestBridgeKinds(t *testing.T) {
	// Every kind must build and (except EmptyBridge) forward warm probes.
	for _, kind := range []BridgeKind{DumbBridge, LearningBridge, NativeLearningBridge, STPBridge} {
		g, h1, h2, br := twoLAN(kind)
		net, err := g.Build(netsim.DefaultCostModel())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if kind == STPBridge {
			// Let the spanning tree move the ports to forwarding.
			net.Sim.Run(netsim.Time(45 * netsim.Second))
		}
		net.Warm(h1, h2)
		if got := net.Host(h2).FramesIn; got == 0 {
			t.Errorf("%v: no frames forwarded", kind)
		}
		if kind == NativeLearningBridge && net.Bridge(br).Machine.Steps != 0 {
			t.Errorf("native bridge executed %d VM steps; expected none", net.Bridge(br).Machine.Steps)
		}
	}

	// EmptyBridge forwards nothing: behaviour is code, none is loaded.
	g, h1, h2, _ := twoLAN(EmptyBridge)
	net := g.MustBuild(netsim.DefaultCostModel())
	net.Warm(h1, h2)
	if got := net.Host(h2).FramesIn; got != 0 {
		t.Errorf("empty bridge forwarded %d frames", got)
	}
}

func TestBridgeKindString(t *testing.T) {
	if LearningBridge.String() != "learning" {
		t.Errorf("LearningBridge = %q", LearningBridge.String())
	}
	if got := BridgeKind(99).String(); got != "bridgekind(99)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

// TestShapeDeclaration pins what Declare adds: every LAN in index order
// under the prefix, then each bridge linked port by port. Chain's last
// bridge sits on its last two LANs, and Ring's closes back onto LAN 0.
func TestShapeDeclaration(t *testing.T) {
	for _, c := range []struct {
		s    Shape
		lans int
		last []int
	}{{Chain(3), 4, []int{2, 3}}, {Ring(3), 3, []int{2, 0}}} {
		g := New("shape")
		segs, brs := c.s.Declare(g, "s", func(int) BridgeID { return g.AddBridge("", LearningBridge, 2) })
		if len(segs) != c.lans || len(g.segments) != c.lans || g.segments[0].name != "s0" || len(brs) != 3 {
			t.Fatalf("declared %d LANs (%d in g, first %q) and %d bridges", len(segs), len(g.segments), g.segments[0].name, len(brs))
		}
		if got := c.s.Ports[2]; got[0] != c.last[0] || got[1] != c.last[1] {
			t.Errorf("last bridge on LANs %v, want %v", got, c.last)
		}
		for i, l := range g.links {
			b, p := i/2, i%2
			if l.node != (nodeRef{nodeBridge, int(brs[b])}) || l.port != p || l.seg != segs[c.s.Ports[b][p]] {
				t.Errorf("link %d: %+v, want bridge %d port %d on LAN %d", i, l, b, p, c.s.Ports[b][p])
			}
		}
	}
}
