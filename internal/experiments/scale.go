package experiments

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/vm"
	"github.com/switchware/activebridge/internal/workload"
)

// This file holds the large-scale scenarios that go beyond the paper's
// measured configurations: multi-bridge fabrics the physical testbed
// could not build, declared with the topology layer and registered like
// every reproduced figure.

// Chain16 runs a 16-bridge linear extended LAN — the paper's two-LAN
// testbed stretched to 17 segments — and measures end-to-end latency and
// streaming throughput. Per-hop interpretation costs add linearly in
// RTT, while throughput stays pinned to a single interpreter's service
// rate because the bridges pipeline.
func Chain16(cost netsim.CostModel) (*report.Table, error) {
	const nBridges = 16
	t := &report.Table{
		Title:  fmt.Sprintf("Scale: %d-bridge linear chain", nBridges),
		Header: []string{"metric", "value"},
	}
	g := topo.New("chain16")
	segs, _ := topo.Chain(nBridges).Declare(g, "s", func(int) topo.BridgeID { return g.AddBridge("", topo.LearningBridge, 2) })
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges])
	// The ttcp stream is closed-loop (delivery at h2 releases h1's next
	// segment without a modelled ACK frame), so the pair must share a
	// shard when the net is built sharded.
	g.Affine(h1, h2)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	net.Warm(h1, h2)

	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(net.Sim.Now() + netsim.Time(60*netsim.Second))
	rtt := p.MeanRTT()

	tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 1<<20)
	tr.Run(net.Sim.Now() + netsim.Time(600*netsim.Second))

	t.Expect(tr.Done(), "chain transfer did not complete")
	t.Expect(rtt > 0 && tr.ThroughputMbps() > 0, "degenerate chain metrics: rtt=%v mbps=%v", rtt, tr.ThroughputMbps())
	t.AddRow("bridges in path", fmt.Sprintf("%d", nBridges))
	t.AddRow("ping RTT 64B (ms)", report.Ms(rtt))
	t.AddRow("ttcp Mb/s (8KB writes)", report.Mbps(tr.ThroughputMbps()))
	t.AddRow("transfer complete", fmt.Sprintf("%v", tr.Done()))
	t.AddNote("RTT grows ~linearly with hop count (per-hop VM cost); throughput pipelines to a single bridge's service rate")
	return t, nil
}

// STPRing builds a 6-bridge ring — a physical loop the paper's
// configurations never dared — running learning plus the IEEE 802.1D
// switchlet on every bridge. The spanning tree must block exactly one
// redundant link, after which unicast connectivity works with no
// broadcast storm.
func STPRing(cost netsim.CostModel) (*report.Table, error) {
	const nBridges = 6
	t := &report.Table{
		Title:  fmt.Sprintf("Scale: %d-bridge STP ring with redundant link", nBridges),
		Header: []string{"metric", "value"},
	}
	g := topo.New("stp-ring")
	segs, _ := topo.Ring(nBridges).Declare(g, "r", func(int) topo.BridgeID { return g.AddBridge("", topo.STPBridge, 2) })
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges/2])
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim
	// Cap the simulation as a storm guard: if the spanning tree failed to
	// break the loop, the cap (not the heat death of the process) ends
	// the run and the frame counts betray the storm.
	sim.MaxEvents = 5_000_000
	sim.Run(netsim.Time(45 * netsim.Second)) // protocol convergence

	blocked := blockedPorts(net)

	net.Warm(h1, h2)
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(sim.Now() + netsim.Time(60*netsim.Second))

	t.Expect(blocked >= 1, "spanning tree blocked no ports: loop not broken")
	t.Expect(p.Completed() == 5, "pings incomplete across ring: %d/5", p.Completed())
	t.AddRow("bridges in ring", fmt.Sprintf("%d", nBridges))
	t.AddRow("ports blocked by STP", fmt.Sprintf("%d", blocked))
	t.AddRow("pings completed", fmt.Sprintf("%d/5", p.Completed()))
	t.AddRow("ping RTT 64B (ms)", report.Ms(p.MeanRTT()))
	t.AddNote("the tree breaks the loop by blocking one redundant port; traffic takes the surviving path")
	return t, nil
}

// Tree64 builds a 3-level bridged tree: one root bridge, 4 distribution
// bridges, 16 leaf LANs and 64 hosts — the "capacity to support many
// LANs and their associated endpoints" question of §7.4 posed as a
// campus topology. It verifies cross-tree connectivity and that learning
// confines a settled unicast conversation to its own subtree.
func Tree64(cost netsim.CostModel) (*report.Table, error) {
	const (
		nMids        = 4
		leavesPerMid = 4
		hostsPerLeaf = 4
	)
	t := &report.Table{
		Title:  "Scale: 3-level tree, 64 hosts on 16 leaf LANs",
		Header: []string{"metric", "value"},
	}
	g := topo.New("tree64")
	root := g.AddBridge("root", topo.LearningBridge, nMids)
	trunks := make([]topo.SegmentID, nMids)
	mids := make([]topo.BridgeID, nMids)
	var leaves []topo.SegmentID
	var hosts []topo.HostID
	for m := 0; m < nMids; m++ {
		trunks[m] = g.AddSegment(fmt.Sprintf("trunk%d", m))
		mids[m] = g.AddBridge(fmt.Sprintf("mid%d", m), topo.LearningBridge, 1+leavesPerMid)
		g.Link(root, trunks[m])
		g.Link(mids[m], trunks[m])
		for l := 0; l < leavesPerMid; l++ {
			leaf := g.AddSegment(fmt.Sprintf("leaf%d.%d", m, l))
			leaves = append(leaves, leaf)
			g.Link(mids[m], leaf)
			for h := 0; h < hostsPerLeaf; h++ {
				id := g.AddHost("")
				hosts = append(hosts, id)
				g.Link(id, leaf)
			}
		}
	}
	first, last := hosts[0], hosts[len(hosts)-1]
	g.Affine(first, last) // closed-loop ttcp pair (see Chain16)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}

	// Settle the conversation, then measure cross-tree latency.
	net.Warm(first, last)
	p := workload.NewPinger(net.Host(first), net.Host(last).IP, 64, 5)
	p.Run(net.Sim.Now() + netsim.Time(60*netsim.Second))

	// An uninvolved leaf in a different subtree must see none of a
	// settled unicast exchange.
	bystander := net.Segment(leaves[leavesPerMid*2]) // first leaf of mid2
	before := bystander.Frames
	exch := workload.NewTtcp(net.Host(first), net.Host(last), 1024, 64<<10)
	exch.Run(net.Sim.Now() + netsim.Time(60*netsim.Second))
	leaked := bystander.Frames - before

	t.Expect(p.Completed() == 5, "cross-tree pings incomplete: %d/5", p.Completed())
	t.Expect(leaked == 0, "settled unicast leaked %d frames into another subtree", leaked)
	t.AddRow("hosts", fmt.Sprintf("%d", len(hosts)))
	t.AddRow("bridges", fmt.Sprintf("%d", 1+nMids))
	t.AddRow("leaf LANs", fmt.Sprintf("%d", len(leaves)))
	t.AddRow("cross-tree RTT 64B (ms)", report.Ms(p.MeanRTT()))
	t.AddRow("pings completed", fmt.Sprintf("%d/5", p.Completed()))
	t.AddRow("frames leaked to uninvolved leaf", fmt.Sprintf("%d", leaked))
	t.AddNote("after learning settles, a unicast conversation stays inside its root-path; other subtrees see nothing (paper §4)")
	return t, nil
}

// MixedFabric chains the paper's node types — C buffered repeaters, the
// bytecode active bridge and the native-code ablation — into one
// heterogeneous path and measures the composition.
func MixedFabric(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Scale: mixed repeater/active-bridge fabric (5 hops)",
		Header: []string{"metric", "value"},
	}
	g := topo.New("mixed-fabric")
	segs := make([]topo.SegmentID, 5)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("m%d", i))
	}
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	rep0 := g.AddRepeater("")
	br1 := g.AddBridge("", topo.LearningBridge, 2)
	rep1 := g.AddRepeater("")
	br2 := g.AddBridge("", topo.NativeLearningBridge, 2)
	g.Link(h1, segs[0])
	g.Link(rep0, segs[0])
	g.Link(rep0, segs[1])
	g.Link(br1, segs[1])
	g.Link(br1, segs[2])
	g.Link(rep1, segs[2])
	g.Link(rep1, segs[3])
	g.Link(br2, segs[3])
	g.Link(br2, segs[4])
	g.Link(h2, segs[4])
	g.Affine(h1, h2) // closed-loop ttcp pair (see Chain16)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	net.Warm(h1, h2)

	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(net.Sim.Now() + netsim.Time(60*netsim.Second))
	tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 1<<20)
	tr.Run(net.Sim.Now() + netsim.Time(600*netsim.Second))

	t.Expect(tr.Done(), "fabric transfer did not complete")
	t.AddRow("path", "host-rep-swl.bridge-rep-native.bridge-host")
	t.AddRow("ping RTT 64B (ms)", report.Ms(p.MeanRTT()))
	t.AddRow("ttcp Mb/s (8KB writes)", report.Mbps(tr.ThroughputMbps()))
	t.AddRow("transfer complete", fmt.Sprintf("%v", tr.Done()))
	t.AddNote("the slowest element — the interpreted bridge — sets the end-to-end rate; repeaters and the native bridge add latency only")
	return t, nil
}

// HotSwap upgrades a bridge under load: a dumb (flooding) switchlet
// carries a live ttcp stream while the learning switchlet is delivered
// over the network loader (§5.2). The swap happens between two frames of
// the stream; after one reverse probe re-warms the new table, the flood
// onto an uninvolved LAN stops.
func HotSwap(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Scale: hot-swap dumb→learning under a live ttcp stream",
		Header: []string{"metric", "value"},
	}
	g := topo.New("hotswap")
	bID := g.AddBridge("br0", topo.DumbBridge, 3,
		topo.WithNetLoader(ipv4.Addr{10, 0, 0, 100}))
	lan1, lan2, lan3 := g.AddSegment("lan1"), g.AddSegment("lan2"), g.AddSegment("lan3")
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	bystander := g.AddTap("bystander", ethernet.MAC{2, 0, 0, 0, 0xcd, 1})
	g.Link(h1, lan1)
	g.Link(bID, lan1)
	g.Link(h2, lan2)
	g.Link(bID, lan2)
	g.Link(bystander, lan3)
	g.Link(bID, lan3)
	g.Affine(h1, h2) // closed-loop ttcp pair (see Chain16)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim, b := net.Sim, net.Bridge(bID)
	net.Tap(bystander).SetRecv(func(*netsim.NIC, []byte) {})
	third := net.Segment(lan3)

	obj, _, err := vm.Compile(switchlets.ModLearning, switchlets.LearningSrc, b.Loader.SigEnv())
	if err != nil {
		return nil, err
	}

	tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 4<<20)
	sim.Schedule(sim.Now()+1, tr.Start)

	up := workload.NewUploader(net.Host(h1), b.NetLoaderAddr(), "learning.swo", obj.Encode())
	sim.Schedule(sim.Now()+netsim.Time(500*netsim.Millisecond), up.Start)

	// Watch for the swap taking effect: snapshot the bystander LAN the
	// instant the network load lands, then re-warm the reverse path so
	// the fresh learning table finds h2 (the one-way stream never would).
	var leakedBefore uint64
	swapAt := netsim.Time(0)
	var watch func()
	watch = func() {
		if b.NetLoads() > 0 {
			leakedBefore = third.Frames
			swapAt = sim.Now()
			net.ScheduleWarm(h2, h1, sim.Now()+1)
			return
		}
		sim.After(10*netsim.Millisecond, watch)
	}
	sim.Schedule(sim.Now()+2, watch)

	sim.Run(sim.Now() + netsim.Time(600*netsim.Second))
	leakedAfter := third.Frames - leakedBefore

	t.Expect(tr.Done(), "stream did not survive the swap")
	t.Expect(b.NetLoads() == 1, "expected exactly one network load, got %d", b.NetLoads())
	t.Expect(leakedBefore >= 10, "dumb phase leaked only %d frames; stream not flooding as expected", leakedBefore)
	t.Expect(2*leakedAfter < leakedBefore, "swap did not contain the flood: %d leaked after vs %d before", leakedAfter, leakedBefore)
	t.AddRow("stream complete", fmt.Sprintf("%v", tr.Done()))
	t.AddRow("ttcp Mb/s (8KB writes)", report.Mbps(tr.ThroughputMbps()))
	t.AddRow("switchlets loaded via network", fmt.Sprintf("%d", b.NetLoads()))
	t.AddRow("swap at (s)", fmt.Sprintf("%.3f", swapAt.Seconds()))
	t.AddRow("frames leaked to third LAN before swap", fmt.Sprintf("%d", leakedBefore))
	t.AddRow("frames leaked after swap+rewarm", fmt.Sprintf("%d", leakedAfter))
	t.AddNote("behaviour is code: the upgrade rides the same frames it will later forward, and no frame of the stream is lost")
	return t, nil
}

// BroadcastStorm is the control experiment for STPRing: the same
// physical loop with no spanning tree (three dumb bridges in a triangle)
// melts down from a single broadcast. The simulator's event cap is the
// only thing that ends it — exactly why the paper's bridges carry a
// spanning tree switchlet.
func BroadcastStorm(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Scale: broadcast storm in an unprotected 3-bridge loop",
		Header: []string{"metric", "value"},
	}
	g := topo.New("broadcast-storm")
	segs, _ := topo.Ring(3).Declare(g, "loop", func(int) topo.BridgeID { return g.AddBridge("", topo.DumbBridge, 2) })
	tap := g.AddTap("storm-source", ethernet.MAC{2, 0, 0, 0, 0xdd, 1})
	g.Link(tap, segs[0])
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim
	const eventCap = 100_000
	sim.MaxEvents = eventCap

	fr := ethernet.Frame{Dst: ethernet.Broadcast, Src: net.Tap(tap).MAC,
		Type: ethernet.TypeTest, Payload: make([]byte, 64)}
	raw, err := fr.Marshal()
	if err != nil {
		return nil, err
	}
	sim.Schedule(1, func() { net.Tap(tap).Send(raw) })
	executed := sim.Run(netsim.Time(10 * netsim.Second))

	frames := frameTotal(net, segs)
	t.Expect(frames >= 1000, "expected a storm (>1000 frames from one broadcast), got %d", frames)
	t.AddRow("broadcasts injected", "1")
	t.AddRow("events executed", fmt.Sprintf("%d (cap %d)", executed, eventCap))
	t.AddRow("frames on the loop", fmt.Sprintf("%d", frames))
	t.AddRow("virtual time elapsed (ms)", fmt.Sprintf("%.3f", float64(sim.Now())/1e6))
	t.AddNote("one frame multiplies without bound and circulates at wire speed until the run is cut off; compare scale-stp-ring")
	return t, nil
}
