package workload

import (
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/icmp"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/udp"
)

func pair(t *testing.T) (*netsim.Sim, *Host, *Host) {
	t.Helper()
	sim := netsim.New()
	cost := netsim.DefaultCostModel()
	h1 := NewHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 0, 1}, ipv4.Addr{10, 0, 0, 1}, cost)
	h2 := NewHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 0, 2}, ipv4.Addr{10, 0, 0, 2}, cost)
	h1.AddNeighbor(h2.IP, h2.MAC)
	h2.AddNeighbor(h1.IP, h1.MAC)
	lan := netsim.NewSegment(sim, "lan")
	lan.Attach(h1.NIC)
	lan.Attach(h2.NIC)
	return sim, h1, h2
}

func TestEchoRequestAnswered(t *testing.T) {
	sim, h1, h2 := pair(t)
	var got *icmp.Echo
	h1.onEchoReply = func(e *icmp.Echo, _ netsim.Time) { got = e }
	e := icmp.Echo{ID: 9, Seq: 1, Data: make([]byte, 32)}
	sim.Schedule(1, func() { _ = h1.SendIP(h2.IP, ipv4.ProtoICMP, e.Marshal()) })
	sim.Run(netsim.Time(netsim.Second))
	if got == nil {
		t.Fatal("no echo reply")
	}
	if got.ID != 9 || got.Seq != 1 || len(got.Data) != 32 {
		t.Errorf("reply = %+v", got)
	}
	if h2.EchoRequests != 1 {
		t.Errorf("h2 answered %d echoes", h2.EchoRequests)
	}
}

func TestLargeEchoFragmentsAndReassembles(t *testing.T) {
	sim, h1, h2 := pair(t)
	_ = h2
	var got *icmp.Echo
	h1.onEchoReply = func(e *icmp.Echo, _ netsim.Time) { got = e }
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	e := icmp.Echo{ID: 1, Seq: 1, Data: data}
	sim.Schedule(1, func() { _ = h1.SendIP(h2.IP, ipv4.ProtoICMP, e.Marshal()) })
	sim.Run(netsim.Time(netsim.Second))
	if got == nil {
		t.Fatal("no reply to fragmented echo")
	}
	if len(got.Data) != 4096 {
		t.Fatalf("reply data = %d bytes", len(got.Data))
	}
	for i, b := range got.Data {
		if b != byte(i) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	// Three fragments each way plus nothing else.
	if h1.FramesOut != 3 {
		t.Errorf("request frames = %d, want 3", h1.FramesOut)
	}
}

func TestSendIPUnknownNeighborQueuesAndOverflows(t *testing.T) {
	sim, h1, _ := pair(t)
	// No station owns this address: the send is queued behind an ARP
	// request that will never be answered.
	ghost := ipv4.Addr{1, 2, 3, 4}
	if err := h1.SendIP(ghost, ipv4.ProtoICMP, []byte{8, 0}); err != nil {
		t.Errorf("first unresolved send should queue, got %v", err)
	}
	sim.Run(netsim.Time(netsim.Second))
	if len(h1.arpPending[ghost]) != 1 {
		t.Errorf("pending = %d", len(h1.arpPending[ghost]))
	}
	// The queue is bounded.
	var overflow error
	for i := 0; i < 100; i++ {
		if err := h1.SendIP(ghost, ipv4.ProtoICMP, []byte{8, 0}); err != nil {
			overflow = err
			break
		}
	}
	if overflow == nil {
		t.Error("ARP queue should overflow eventually")
	}
}

func TestPingerCollectsRTTs(t *testing.T) {
	sim, h1, h2 := pair(t)
	p := NewPinger(h1, h2.IP, 64, 5)
	p.Run(sim.Now() + netsim.Time(30*netsim.Second))
	if p.Completed() != 5 {
		t.Fatalf("completed = %d", p.Completed())
	}
	rtts := p.RTTs()
	for i, r := range rtts {
		if r <= 0 {
			t.Errorf("rtt[%d] = %v", i, r)
		}
	}
	if p.MeanRTT() <= 0 {
		t.Error("mean RTT zero")
	}
	// Direct-LAN small ping should be well under a millisecond.
	if p.MeanRTT() > netsim.Millisecond {
		t.Errorf("direct RTT = %v, suspiciously high", p.MeanRTT())
	}
	// A negative size is an empty echo, not a makeslice panic.
	neg := NewPinger(h1, h2.IP, -5, 2)
	neg.Run(sim.Now() + netsim.Time(30*netsim.Second))
	if neg.Completed() != 2 {
		t.Errorf("size -5: completed = %d, want 2", neg.Completed())
	}
}

func TestTtcpTransfersExactly(t *testing.T) {
	sim, h1, h2 := pair(t)
	const total = 1 << 20
	tr := NewTtcp(h1, h2, 8192, total)
	tr.Run(sim.Now() + netsim.Time(120*netsim.Second))
	if !tr.Done() {
		t.Fatal("transfer incomplete")
	}
	if tr.delivered != total {
		t.Errorf("delivered = %d, want %d", tr.delivered, total)
	}
	if tr.ThroughputMbps() <= 0 || tr.FramesPerSecond() <= 0 {
		t.Error("rates not computed")
	}
	// 1 MiB at MSS-sized segments: ceil(1 MiB / 1460) frames.
	wantFrames := uint64((total + MSS - 1) / MSS)
	if tr.frames != wantFrames {
		t.Errorf("frames = %d, want %d", tr.frames, wantFrames)
	}
}

func TestTtcpSmallWritesUseOneFramePerWrite(t *testing.T) {
	sim, h1, h2 := pair(t)
	tr := NewTtcp(h1, h2, 100, 10_000)
	tr.Run(sim.Now() + netsim.Time(60*netsim.Second))
	if !tr.Done() {
		t.Fatal("transfer incomplete")
	}
	if tr.frames != 100 {
		t.Errorf("frames = %d, want 100", tr.frames)
	}
	if tr.FrameLen() != ethernet.HeaderLen+100+ethernet.FCSLen {
		t.Errorf("FrameLen = %d", tr.FrameLen())
	}
}

func TestTtcpWindowLimitsInflight(t *testing.T) {
	sim, h1, h2 := pair(t)
	tr := NewTtcp(h1, h2, 1024, 1<<20)
	tr.Window = 4
	tr.Run(sim.Now() + netsim.Time(120*netsim.Second))
	if !tr.Done() {
		t.Fatal("transfer incomplete")
	}
	// With a tiny window throughput drops but correctness holds.
	if tr.delivered != 1<<20 {
		t.Errorf("delivered = %d", tr.delivered)
	}
}

func TestUDPBindAndDeliver(t *testing.T) {
	sim, h1, h2 := pair(t)
	var gotPort uint16
	var gotData []byte
	h2.BindUDP(4000, func(src ipv4.Addr, srcPort uint16, payload []byte) {
		gotPort = srcPort
		gotData = append([]byte(nil), payload...)
	})
	sim.Schedule(1, func() { _ = h1.SendUDP(h2.IP, 1234, 4000, []byte("hello")) })
	sim.Run(netsim.Time(netsim.Second))
	if gotPort != 1234 || string(gotData) != "hello" {
		t.Errorf("udp delivery: port=%d data=%q", gotPort, gotData)
	}
}

func TestHostStackCostCharged(t *testing.T) {
	sim, h1, h2 := pair(t)
	sim.Schedule(1, func() { _ = h1.SendTest(h2.MAC, make([]byte, 500)) })
	sim.Run(netsim.Time(netsim.Second))
	if h1.CPU().Busy == 0 {
		t.Error("sender stack cost not charged")
	}
	if h2.CPU().Busy == 0 {
		t.Error("receiver stack cost not charged")
	}
}

func TestARPResolutionOnDemand(t *testing.T) {
	// Hosts with NO static neighbor entries must resolve via ARP and then
	// deliver the queued packet.
	sim := netsim.New()
	cost := netsim.DefaultCostModel()
	h1 := NewHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 1, 1}, ipv4.Addr{10, 1, 0, 1}, cost)
	h2 := NewHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 1, 2}, ipv4.Addr{10, 1, 0, 2}, cost)
	lan := netsim.NewSegment(sim, "lan")
	lan.Attach(h1.NIC)
	lan.Attach(h2.NIC)

	var got *icmp.Echo
	h1.onEchoReply = func(e *icmp.Echo, _ netsim.Time) { got = e }
	e := icmp.Echo{ID: 3, Seq: 1, Data: make([]byte, 16)}
	sim.Schedule(1, func() {
		if err := h1.SendIP(h2.IP, ipv4.ProtoICMP, e.Marshal()); err != nil {
			t.Errorf("SendIP: %v", err)
		}
	})
	sim.Run(netsim.Time(netsim.Second))
	if got == nil {
		t.Fatal("no echo reply after ARP resolution")
	}
	// Both sides now know each other (request taught h2, reply taught h1).
	if h1.neighbors[h2.IP] != h2.MAC {
		t.Error("h1 did not learn h2")
	}
	if h2.neighbors[h1.IP] != h1.MAC {
		t.Error("h2 did not learn h1 from the request")
	}
}

func TestARPQueueMultiplePending(t *testing.T) {
	sim := netsim.New()
	cost := netsim.DefaultCostModel()
	h1 := NewHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 2, 1}, ipv4.Addr{10, 2, 0, 1}, cost)
	h2 := NewHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 2, 2}, ipv4.Addr{10, 2, 0, 2}, cost)
	lan := netsim.NewSegment(sim, "lan")
	lan.Attach(h1.NIC)
	lan.Attach(h2.NIC)
	var gotData []byte
	h2.BindUDP(9000, func(_ ipv4.Addr, _ uint16, payload []byte) {
		gotData = append(gotData, payload...)
	})
	sim.Schedule(1, func() {
		// Three sends while unresolved: one ARP request, all delivered after.
		for i := 0; i < 3; i++ {
			_ = h1.SendUDP(h2.IP, 1000, 9000, []byte{byte('a' + i)})
		}
	})
	sim.Run(netsim.Time(netsim.Second))
	if string(gotData) != "abc" {
		t.Errorf("delivered = %q, want all three queued datagrams in order", gotData)
	}
}

func TestARPAcrossActiveBridge(t *testing.T) {
	// ARP broadcast flooding + unicast reply must cross a learning bridge.
	// (This is how real stations on the paper's extended LANs find each
	// other; the flood also primes the bridge's table.)
	sim := netsim.New()
	cost := netsim.DefaultCostModel()
	b := bridge.New(sim, "br", 7, 2, cost)
	if _, err := b.Manager().Install(switchlets.LearningManifest()); err != nil {
		t.Fatal(err)
	}
	h1 := NewHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 3, 1}, ipv4.Addr{10, 3, 0, 1}, cost)
	h2 := NewHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 3, 2}, ipv4.Addr{10, 3, 0, 2}, cost)
	lan1 := netsim.NewSegment(sim, "lan1")
	lan2 := netsim.NewSegment(sim, "lan2")
	lan1.Attach(h1.NIC)
	lan1.Attach(b.Port(0))
	lan2.Attach(h2.NIC)
	lan2.Attach(b.Port(1))
	var got *icmp.Echo
	h1.onEchoReply = func(e *icmp.Echo, _ netsim.Time) { got = e }
	e := icmp.Echo{ID: 4, Seq: 1, Data: make([]byte, 8)}
	sim.Schedule(1, func() { _ = h1.SendIP(h2.IP, ipv4.ProtoICMP, e.Marshal()) })
	sim.Run(netsim.Time(2 * netsim.Second))
	if got == nil {
		t.Fatal("ARP + ping did not cross the bridge")
	}
}

// TestNeighborLookupOrder pins SendIP's resolution order: the host's own
// entries (AddNeighbor, ARP-learned) first, then the shared directory,
// which never resolves the host's own IP; anything else goes to ARP.
func TestNeighborLookupOrder(t *testing.T) {
	bogus := ethernet.MAC{2, 0, 0, 0, 9, 9}
	cases := []struct {
		name string
		// prepare runs before h1's send; dir is h1's directory.
		prepare   func(sim *netsim.Sim, h1, h2 *Host, dir map[ipv4.Addr]ethernet.MAC)
		dst       func(h1, h2 *Host) ipv4.Addr
		wantARP   uint64 // ARP frames from h1 seen on the LAN
		wantDatum bool   // h2 receives h1's datagram
	}{
		{
			name:    "directory entry, no ARP",
			prepare: func(_ *netsim.Sim, _, h2 *Host, dir map[ipv4.Addr]ethernet.MAC) { dir[h2.IP] = h2.MAC },
			dst:     func(_, h2 *Host) ipv4.Addr { return h2.IP },
			wantARP: 0, wantDatum: true,
		},
		{
			name:    "own IP never from the directory",
			prepare: func(_ *netsim.Sim, h1, _ *Host, dir map[ipv4.Addr]ethernet.MAC) { dir[h1.IP] = bogus },
			dst:     func(h1, _ *Host) ipv4.Addr { return h1.IP },
			wantARP: 1, wantDatum: false,
		},
		{
			name: "ARP-learned entry wins",
			prepare: func(sim *netsim.Sim, h1, h2 *Host, dir map[ipv4.Addr]ethernet.MAC) {
				dir[h2.IP] = bogus
				// h2 has no entries, so its send ARPs for h1; the request
				// teaches h1 h2's real MAC and h1 answers (1 ARP frame).
				_ = h2.SendIP(h1.IP, ipv4.ProtoUDP, []byte("hello"))
				sim.Run(sim.Now() + netsim.Time(netsim.Second))
			},
			dst:     func(_, h2 *Host) ipv4.Addr { return h2.IP },
			wantARP: 1, wantDatum: true,
		},
		{
			name: "AddNeighbor entry wins",
			prepare: func(_ *netsim.Sim, h1, h2 *Host, dir map[ipv4.Addr]ethernet.MAC) {
				dir[h2.IP] = bogus
				h1.AddNeighbor(h2.IP, h2.MAC)
			},
			dst:     func(_, h2 *Host) ipv4.Addr { return h2.IP },
			wantARP: 0, wantDatum: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New()
			cost := netsim.DefaultCostModel()
			h1 := NewHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 3, 1}, ipv4.Addr{10, 3, 0, 1}, cost)
			h2 := NewHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 3, 2}, ipv4.Addr{10, 3, 0, 2}, cost)
			dir := map[ipv4.Addr]ethernet.MAC{}
			h1.SetDirectory(dir)
			lan := netsim.NewSegment(sim, "lan")
			lan.Attach(h1.NIC)
			lan.Attach(h2.NIC)
			var arpFromH1 uint64
			tap := netsim.NewNIC(sim, "tap", ethernet.MAC{2, 0, 0, 0, 3, 3})
			tap.Promiscuous = true
			tap.SetRecv(func(_ *netsim.NIC, raw []byte) {
				var fr ethernet.Frame
				if fr.Unmarshal(raw) == nil && fr.Type == ethernet.TypeARP && fr.Src == h1.MAC {
					arpFromH1++
				}
			})
			lan.Attach(tap)
			var got []byte
			h2.BindUDP(7, func(_ ipv4.Addr, _ uint16, payload []byte) { got = append(got, payload...) })

			tc.prepare(sim, h1, h2, dir)
			dg := udp.Datagram{SrcPort: 7, DstPort: 7, Payload: []byte("datum")}
			dst := tc.dst(h1, h2)
			raw, err := dg.Marshal(h1.IP, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := h1.SendIP(dst, ipv4.ProtoUDP, raw); err != nil {
				t.Fatalf("SendIP: %v", err)
			}
			sim.Run(sim.Now() + netsim.Time(netsim.Second))
			if arpFromH1 != tc.wantARP {
				t.Errorf("h1 sent %d ARP frames, want %d", arpFromH1, tc.wantARP)
			}
			if gotDatum := string(got) == "datum"; gotDatum != tc.wantDatum {
				t.Errorf("h2 received %q, want datum delivered = %v", got, tc.wantDatum)
			}
		})
	}
}
