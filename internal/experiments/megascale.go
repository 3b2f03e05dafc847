package experiments

import (
	"fmt"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// This file holds the mega-scale scenarios: fabrics far past the paper's
// testbed (hundreds of bridges, ~1k hosts), large enough that Partition
// accepts them, so they are what the sharded identity checks (AB_SHARDS,
// TestShardedMatchesSerial) actually replay on more than one engine. The
// serial engine runs each in a fraction of a second, faster than any
// shard count does (README, "Sharded engine").

// FatTree256 builds a three-tier campus fabric of exactly 256 bridges —
// one core, 15 pod (aggregation) bridges on 5µs fiber trunks, and 240
// edge bridges on 2µs risers — with 960 hosts on 240 edge LANs, then
// drives a mixed workload: pod-local and cross-pod ttcp streams, ICMP
// echo trains, and two live TFTP switchlet deployments to empty edge
// bridges whose LANs only start forwarding once the learning switchlet
// arrives over the fabric itself (§5.2 at scale).
func FatTree256(cost netsim.CostModel) (*report.Table, error) {
	const (
		nPods        = 15
		edgesPerPod  = 16
		hostsPerEdge = 4
	)
	t := &report.Table{
		Title:  "Mega: 256-bridge fat-tree, 960 hosts, mixed ttcp/tftp/ping load",
		Header: []string{"metric", "value"},
	}

	g := topo.New("fattree256")
	core := g.AddBridge("core", topo.LearningBridge, nPods)
	type edge struct {
		id    topo.BridgeID
		lan   topo.SegmentID
		hosts []topo.HostID
	}
	var edges []edge
	loaderEdges := map[int]ipv4.Addr{
		0:   {10, 9, 0, 1}, // pod 0, first edge
		120: {10, 9, 0, 2}, // pod 7, mid-fabric edge
	}
	for p := 0; p < nPods; p++ {
		trunk := g.AddSegment(fmt.Sprintf("trunk%d", p), topo.WithPropagation(5*netsim.Microsecond))
		agg := g.AddBridge(fmt.Sprintf("agg%d", p), topo.LearningBridge, 1+edgesPerPod)
		g.Link(core, trunk)
		g.Link(agg, trunk)
		for e := 0; e < edgesPerPod; e++ {
			idx := p*edgesPerPod + e
			riser := g.AddSegment(fmt.Sprintf("riser%d.%d", p, e), topo.WithPropagation(2*netsim.Microsecond))
			kind := topo.LearningBridge
			var opts []topo.BridgeOpt
			if addr, ok := loaderEdges[idx]; ok {
				// Deployed live over the fabric: empty until TFTP delivers
				// the learning switchlet.
				kind = topo.EmptyBridge
				opts = append(opts, topo.WithNetLoader(addr))
			}
			eb := g.AddBridge(fmt.Sprintf("edge%d.%d", p, e), kind, 2, opts...)
			lan := g.AddSegment(fmt.Sprintf("lan%d.%d", p, e))
			g.Link(agg, riser)
			g.Link(eb, riser)
			g.Link(eb, lan)
			ed := edge{id: eb, lan: lan}
			for h := 0; h < hostsPerEdge; h++ {
				id := g.AddHost("")
				ed.hosts = append(ed.hosts, id)
				g.Link(id, lan)
			}
			edges = append(edges, ed)
		}
	}

	// Traffic matrix. Every ttcp pair is declared affine: the stream's
	// self-clocking (delivery releases the next segment) is the
	// unmodelled ACK channel, so the pair must share a shard.
	type flow struct{ src, dst topo.HostID }
	var local, cross []flow
	for p := 0; p < nPods; p++ {
		f := flow{edges[p*edgesPerPod+2].hosts[0], edges[p*edgesPerPod+9].hosts[1]}
		local = append(local, f)
		g.Affine(f.src, f.dst)
	}
	for i := 0; i < 4; i++ {
		f := flow{edges[(3*i+1)*edgesPerPod+4].hosts[2], edges[((3*i+8)%nPods)*edgesPerPod+11].hosts[3]}
		cross = append(cross, f)
		g.Affine(f.src, f.dst)
	}
	// The stream that only works after deployment: across the pod-0
	// loader edge.
	postPair := flow{edges[0].hosts[0], edges[5].hosts[0]}
	g.Affine(postPair.src, postPair.dst)

	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim

	// Warm all measured pairs under one clock, then settle. Launches are
	// staggered a nanosecond apart: the fabric is symmetric, so probes
	// released at the exact same instant would collide at shared bridges
	// at exactly equal nanoseconds — orderings the serial engine resolves
	// by global scheduling order, which a sharded run cannot know. A 1ns
	// skew keeps every such meeting strictly ordered in virtual time
	// (and is what any real fleet launcher would look like).
	at := sim.Now()
	for i, f := range append(append([]flow{}, local...), cross...) {
		net.ScheduleWarm(f.src, f.dst, at+netsim.Time(2*i))
	}
	sim.Run(at + netsim.Time(100*netsim.Millisecond))

	var streams []*workload.Ttcp
	for _, f := range local {
		streams = append(streams, workload.NewTtcp(net.Host(f.src), net.Host(f.dst), 8192, 512<<10))
	}
	for _, f := range cross {
		streams = append(streams, workload.NewTtcp(net.Host(f.src), net.Host(f.dst), 8192, 256<<10))
	}
	var pingers []*workload.Pinger
	for i := 0; i < 6; i++ {
		src := edges[(2*i)*edgesPerPod/2+7].hosts[1]
		dst := edges[((2*i+5)%nPods)*edgesPerPod+13].hosts[2]
		pingers = append(pingers, workload.NewPinger(net.Host(src), net.Host(dst).IP, 64, 5))
	}

	// With the metrics plane on, every flow publishes live throughput —
	// instruments only sample existing counters at quiescent points, so
	// the run (and its golden fingerprint) is identical either way.
	if reg := net.Metrics(); reg != nil {
		mls := metrics.Labels{{Name: "net", Value: "fattree256"}}
		for i, tr := range streams {
			tr.Instrument(reg, mls.With("flow", fmt.Sprintf("ttcp%d", i)))
		}
		for i, p := range pingers {
			p.Instrument(reg, mls.With("flow", fmt.Sprintf("ping%d", i)))
		}
	}

	start := sim.Now()
	for i, tr := range streams {
		tr := tr
		sim.Schedule(start+1+netsim.Time(i), tr.Start)
	}
	for i, p := range pingers {
		p := p
		sim.Schedule(start+1+netsim.Time(len(streams)+i), p.Start)
	}

	// Live deployments: compile once against a loader bridge's (empty)
	// environment, upload to both via TFTP through the fabric.
	deployIdx := []int{0, 120}
	var uploads []*workload.Uploader
	for di, idx := range deployIdx {
		b := net.Bridge(edges[idx].id)
		enc, err := b.Manager().Compile(switchlets.LearningManifest())
		if err != nil {
			return nil, err
		}
		up := workload.NewUploader(net.Host(edges[idx+1].hosts[0]), loaderEdges[idx], "learning.swo", enc)
		uploads = append(uploads, up)
		sim.Schedule(start+netsim.Time(netsim.Second)+netsim.Time(di)*netsim.Time(50*netsim.Millisecond), up.Start)
	}

	// The post-deployment stream crosses the freshly loaded edge bridge.
	post := workload.NewTtcp(net.Host(postPair.src), net.Host(postPair.dst), 8192, 128<<10)
	if reg := net.Metrics(); reg != nil {
		post.Instrument(reg, metrics.Labels{{Name: "net", Value: "fattree256"}, {Name: "flow", Value: "post-deploy"}})
	}
	sim.Schedule(start+netsim.Time(10*netsim.Second), func() {
		net.ScheduleWarm(postPair.src, postPair.dst, sim.Now())
	})
	sim.Schedule(start+netsim.Time(10*netsim.Second)+netsim.Time(200*netsim.Millisecond), post.Start)

	sim.Run(start + netsim.Time(120*netsim.Second))

	done := 0
	agg := 0.0
	for _, tr := range streams {
		if tr.Done() {
			done++
			agg += tr.ThroughputMbps()
		}
	}
	pings := 0
	var rtt netsim.Duration
	for _, p := range pingers {
		pings += p.Completed()
		rtt += p.MeanRTT()
	}
	rtt /= netsim.Duration(len(pingers))
	var loads uint64
	for _, idx := range deployIdx {
		loads += net.Bridge(edges[idx].id).NetLoads()
	}
	uploadsDone := 0
	for _, up := range uploads {
		if up.Done() {
			uploadsDone++
		}
	}

	t.Expect(done == len(streams), "streams incomplete: %d/%d", done, len(streams))
	t.Expect(pings == 30, "pings incomplete: %d/30", pings)
	t.Expect(loads == 2, "expected 2 network deployments, got %d", loads)
	t.Expect(post.Done(), "post-deploy stream incomplete")
	t.AddRow("bridges", "256 (1 core + 15 agg + 240 edge)")
	t.AddRow("hosts", fmt.Sprintf("%d", len(edges)*hostsPerEdge))
	t.AddRow("ttcp streams complete", fmt.Sprintf("%d/%d", done, len(streams)))
	t.AddRow("aggregate ttcp Mb/s", report.Mbps(agg))
	t.AddRow("cross-pod pings", fmt.Sprintf("%d/30", pings))
	t.AddRow("mean RTT 64B (ms)", report.Ms(rtt))
	t.AddRow("switchlets deployed via TFTP", fmt.Sprintf("%d", loads))
	t.AddRow("post-deploy stream complete", fmt.Sprintf("%v", post.Done()))
	t.AddNote("behaviour is code at fabric scale: two edge bridges boot empty and join the fabric when the learning switchlet arrives over it")
	return t, nil
}

// Ring8RollingUpgrade runs the paper's §5.4 protocol transition as a
// fleet operation: an 8-bridge ring (loop!) running learning + the DEC
// spanning tree is upgraded bridge-by-bridge to the IEEE 802.1D
// switchlet through each bridge's lifecycle Manager, under a live ttcp
// stream. The roll is fast relative to the validation window, so every
// bridge's captured DEC tree is compared against the fully-converged
// IEEE tree — all eight upgrades must commit, no rollbacks, and
// connectivity must survive.
func Ring8RollingUpgrade(cost netsim.CostModel) (*report.Table, error) {
	const nBridges = 8
	t := &report.Table{
		Title:  "Mega: rolling DEC→IEEE upgrade across an 8-bridge STP ring under load",
		Header: []string{"metric", "value"},
	}
	g := topo.New("ring8-upgrade")
	segs, bIDs := topo.Ring(nBridges).Declare(g, "r", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.EmptyBridge, 2)
	})
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges/2])
	g.Affine(h1, h2) // closed-loop ttcp pair
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim

	// Provision the ring: learning + DEC (running) on every bridge, as
	// the pre-transition fleet state.
	for _, id := range bIDs {
		m := net.Bridge(id).Manager()
		if _, err := m.Install(switchlets.LearningManifest()); err != nil {
			return nil, err
		}
		if _, err := m.Install(switchlets.DECManifest()); err != nil {
			return nil, err
		}
	}
	sim.MaxEvents = 20_000_000               // storm guard only; never reached on a healthy roll
	sim.Run(netsim.Time(40 * netsim.Second)) // DEC converges, loop broken

	net.Warm(h1, h2)
	load := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 64<<20)
	sim.Schedule(sim.Now()+1, load.Start)

	// The roll: one Manager.Upgrade every 600ms (off the 2s hello
	// lattice). Validation must outwait an artifact of rolling through a
	// mixed-protocol phase: bridges still on DEC flood IEEE BPDUs as
	// ordinary multicast data, so early-upgraded bridges hear tunneled,
	// under-costed root vectors that only age out via max-age (20s).
	// Validating 35s after each handoff gives the stale vectors time to
	// expire and the true IEEE tree time to re-converge — at which point
	// it must equal the captured DEC tree exactly.
	opts := bridge.UpgradeOptions{
		SuppressFor:   8 * netsim.Second,
		ValidateAfter: 35 * netsim.Second,
	}
	upgrades := make([]*bridge.Upgrade, nBridges)
	rollStart := netsim.Time(47*netsim.Second) + netsim.Time(300*netsim.Millisecond)
	for i := 0; i < nBridges; i++ {
		i := i
		at := rollStart + netsim.Time(i)*netsim.Time(600*netsim.Millisecond)
		sim.Schedule(at, func() {
			u, err := net.Bridge(bIDs[i]).Manager().Upgrade(switchlets.ModDEC, switchlets.SpanningManifest(), opts)
			if u != nil {
				upgrades[i] = u
			}
			_ = err // a start trap records itself in the upgrade state
		})
	}

	sim.Run(netsim.Time(95 * netsim.Second))
	deliveredDuringRoll := load.DeliveredBytes()

	// Post-roll health: the IEEE tree must hold the loop broken and carry
	// traffic.
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(sim.Now() + netsim.Time(20*netsim.Second))

	committed, rolledBack := 0, 0
	for _, u := range upgrades {
		if u == nil {
			continue
		}
		switch u.State() {
		case bridge.UpgradeCommitted:
			committed++
		case bridge.UpgradeRolledBack:
			rolledBack++
		}
	}
	blocked := blockedPorts(net)

	t.Expect(committed == nBridges, "upgrades incomplete: %d/%d", committed, nBridges)
	t.Expect(rolledBack == 0, "unexpected rollbacks: %d", rolledBack)
	t.Expect(blocked >= 1, "IEEE tree left the loop unbroken")
	t.Expect(deliveredDuringRoll > 1<<20, "stream starved across the roll: %d bytes", deliveredDuringRoll)
	t.Expect(p.Completed() == 5, "post-roll pings incomplete: %d/5", p.Completed())
	t.AddRow("bridges upgraded (committed)", fmt.Sprintf("%d/%d", committed, nBridges))
	t.AddRow("rollbacks", fmt.Sprintf("%d", rolledBack))
	t.AddRow("ports blocked after roll", fmt.Sprintf("%d", blocked))
	t.AddRow("MB delivered across the roll", fmt.Sprintf("%.1f", float64(deliveredDuringRoll)/(1<<20)))
	t.AddRow("pings after roll", fmt.Sprintf("%d/5", p.Completed()))
	t.AddNote("the paper's Table 1 transition as a per-bridge Manager primitive, rolled across a redundant fabric without losing the stream")
	return t, nil
}

// StormContainment builds a four-pod fabric where pod 0's LAN contains an
// unprotected dumb-bridge loop. One injected broadcast melts the pod down
// at its bridges' service rate, but the fabric survives: the boundary
// bridge's bounded transmit queue throttles what escapes, and hosts in
// far pods keep exchanging traffic while the storm rages.
func StormContainment(cost netsim.CostModel) (*report.Table, error) {
	const nPods = 4
	t := &report.Table{
		Title:  "Mega: broadcast-storm containment at a pod boundary",
		Header: []string{"metric", "value"},
	}
	g := topo.New("storm-containment")
	backbone := g.AddSegment("backbone", topo.WithPropagation(5*netsim.Microsecond))
	podLANs := make([]topo.SegmentID, nPods)
	var podHosts [][]topo.HostID
	for p := 0; p < nPods; p++ {
		podLANs[p] = g.AddSegment(fmt.Sprintf("pod%d", p))
		pb := g.AddBridge(fmt.Sprintf("pbr%d", p), topo.LearningBridge, 2)
		g.Link(pb, backbone)
		g.Link(pb, podLANs[p])
		var hosts []topo.HostID
		n := 2
		if p == 0 {
			n = 1 // the victim host inside the storm pod
		}
		for h := 0; h < n; h++ {
			id := g.AddHost("")
			hosts = append(hosts, id)
			g.Link(id, podLANs[p])
		}
		podHosts = append(podHosts, hosts)
	}
	// The latent loop inside pod 0: three bridges wired redundantly
	// around the pod LAN. They boot empty — the loop is inert until the
	// flooding switchlet arrives, so the fabric's steady state is healthy
	// and the storm has a precise ignition instant.
	s2 := g.AddSegment("loop1")
	s3 := g.AddSegment("loop2")
	d1 := g.AddBridge("d1", topo.EmptyBridge, 2)
	d2 := g.AddBridge("d2", topo.EmptyBridge, 2)
	d3 := g.AddBridge("d3", topo.EmptyBridge, 2)
	g.Link(d1, podLANs[0])
	g.Link(d1, s2)
	g.Link(d2, s2)
	g.Link(d2, s3)
	g.Link(d3, s3)
	g.Link(d3, podLANs[0])
	tap := g.AddTap("storm-source", ethernet.MAC{2, 0, 0, 0, 0xdd, 7})
	g.Link(tap, s2)

	// The far-pod conversation (pods 1 -> 3) that must ride out the
	// storm; the ttcp pair is closed-loop, so it shares a shard.
	src, dst := podHosts[1][0], podHosts[3][1]
	g.Affine(src, dst)

	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim
	net.Warm(src, dst)

	// Ignite: deploy the flooding (dumb) switchlet into the looped
	// topology — behaviour is code, and this code is a misconfiguration —
	// then feed the loop one broadcast and measure the far pods riding
	// out the melt-down.
	fr := ethernet.Frame{Dst: ethernet.Broadcast, Src: net.Tap(tap).MAC,
		Type: ethernet.TypeTest, Payload: make([]byte, 256)}
	raw, err := fr.Marshal()
	if err != nil {
		return nil, err
	}
	loopBridge := net.Bridge(d2)              // interior of the loop
	farBridge := net.Bridge(topo.BridgeID(2)) // pbr2: an uninvolved pod
	var loopBusy0, farBusy0 netsim.Duration
	igniteAt := sim.Now() + netsim.Time(100*netsim.Millisecond)
	sim.Schedule(igniteAt-netsim.Time(10*netsim.Millisecond), func() {
		for _, id := range []topo.BridgeID{d1, d2, d3} {
			if _, err := net.Bridge(id).Manager().Install(switchlets.DumbManifest()); err != nil {
				panic(err) // bundled manifest on an empty node cannot fail
			}
		}
	})
	sim.Schedule(igniteAt, func() {
		loopBusy0, farBusy0 = loopBridge.CPU().Busy, farBridge.CPU().Busy
		// A burst of broadcasts: each circulates the loop forever, so the
		// population saturates the loop interpreters within milliseconds.
		for i := 0; i < 48; i++ {
			net.Tap(tap).Send(raw)
		}
	})

	p := workload.NewPinger(net.Host(src), net.Host(dst).IP, 64, 3)
	sim.Schedule(igniteAt+netsim.Time(300*netsim.Millisecond), p.Start)
	tr := workload.NewTtcp(net.Host(src), net.Host(dst), 1024, 256<<10)
	sim.Schedule(igniteAt+netsim.Time(500*netsim.Millisecond), tr.Start)

	sim.Run(igniteAt + netsim.Time(3*netsim.Second))

	stormFrames := net.Segment(podLANs[0]).Frames + net.Segment(s2).Frames + net.Segment(s3).Frames
	backboneFrames := net.Segment(backbone).Frames
	window := sim.Now().Sub(igniteAt)
	loopUtil := float64(loopBridge.CPU().Busy-loopBusy0) / float64(window)
	farUtil := float64(farBridge.CPU().Busy-farBusy0) / float64(window)

	t.Expect(stormFrames >= 1000, "no storm ignited (%d frames)", stormFrames)
	t.Expect(2*backboneFrames <= stormFrames, "storm not contained: %d backbone vs %d pod frames", backboneFrames, stormFrames)
	t.Expect(loopUtil >= 0.9, "loop interpreters not melted (%.0f%% util); storm too weak", 100*loopUtil)
	// farUtil is reported only; liveness is what the ping and the stream prove.
	t.Expect(p.Completed() == 3, "far-pod pings failed during storm: %d/3", p.Completed())
	t.Expect(tr.Done(), "far-pod stream failed during storm")
	t.AddRow("storm frames inside pod 0", fmt.Sprintf("%d", stormFrames))
	t.AddRow("frames on the backbone", fmt.Sprintf("%d", backboneFrames))
	t.AddRow("containment ratio", fmt.Sprintf("%.1fx", float64(stormFrames)/float64(backboneFrames+1)))
	t.AddRow("loop bridge CPU util during storm", fmt.Sprintf("%.0f%%", 100*loopUtil))
	t.AddRow("far-pod CPU util during storm", fmt.Sprintf("%.0f%%", 100*farUtil))
	t.AddRow("far-pod pings during storm", fmt.Sprintf("%d/3", p.Completed()))
	t.AddRow("far-pod stream complete", fmt.Sprintf("%v", tr.Done()))
	t.AddNote("the storm saturates every interpreter it reaches, but the boundary's service rate caps what escapes: far pods run hot yet keep carrying their own traffic")
	return t, nil
}
