package main

import (
	"fmt"
	"strings"

	"github.com/switchware/activebridge/internal/fault/frand"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/workload"
)

// runCfg is what a workload's inputs are made from.
type runCfg struct {
	seed  uint64
	slice netsim.Duration // virtual time one timed Sim.Run call covers
}

// cfg sizes a workload's slices: its length at scale 1 times scale, kept
// a whole multiple of sliceUnit so periodic generators stay aligned with
// slice ends.
func (d *workloadDef) cfg(seed uint64, scale float64) runCfg {
	n := netsim.Duration(float64(d.slice)*scale) / d.sliceUnit
	if n < 1 {
		n = 1
	}
	return runCfg{seed: seed, slice: n * d.sliceUnit}
}

// workloadDef is one entry of the benchmark's fixed workload list.
type workloadDef struct {
	name string
	why  string
	// build declares the graph and materialises it (topo.build); warm then
	// brings it to steady state (topo.warm). Together they are set-up.
	build func(cfg runCfg) (*instance, error)
	// reference names the workload whose simulated behaviour this one
	// must reproduce exactly (same inputs, one simulator knob flipped).
	reference string
	// byHand keeps a workload out of BENCHMARK.json: `bench run` and `bench
	// compare` cover it, the driver's bounds do not (README, "Why
	// fabric-shard2 is run by hand").
	byHand bool
	// slice is the virtual time of one slice at scale 1, sized so that 40
	// slices take 5 to 6 host seconds on the box the baseline was taken on.
	slice, sliceUnit netsim.Duration
	// Shape of the workload's ops, for the isolated layer drivers.
	frameLen int // payload bytes of a data frame
	fanout   int // NICs on a segment that see each frame
	dstMACs  int // distinct destination MACs crossing one bridge
}

var workloads = []workloadDef{
	{
		name: "fwd-stream", frameLen: 1024, fanout: 2, dstMACs: 1,
		// 65 virtual seconds carry 100 000 frames at the modelled bridge's
		// 1 530 frames/s.
		slice: 65 * netsim.Second, sliceUnit: netsim.Millisecond,
		why:   "the paper's two-host ttcp testbed made long enough to time: event queue, bridge demux and VM each take about a third, flow cache always hits",
		build: func(cfg runCfg) (*instance, error) { return buildPair(cfg, false) },
	},
	{
		name: "fwd-observed", frameLen: 1024, fanout: 2, dstMACs: 1, reference: "fwd-stream",
		slice: 24500 * netsim.Millisecond, sliceUnit: netsim.Millisecond, // 37 500 frames
		why:   "fwd-stream's inputs with the metrics and tracing planes on at 1% sampling: the only place their cost shows",
		build: func(cfg runCfg) (*instance, error) { return buildPair(cfg, true) },
	},
	{
		name: "locality-tree", frameLen: 256, fanout: 16, dstMACs: 256,
		slice: 30000 * localityInterval, sliceUnit: localityInterval, // 30 000 frames
		why:   "open-loop LRU-stack traffic among 256 hosts on shared LANs: flow-cache misses, 16-NIC fan-out and ~40 events per op load NIC/segment delivery and the demux miss path",
		build: buildLocality,
	},
	{
		name: "stp-churn", fanout: 2,
		slice: 300 * netsim.Second, sliceUnit: netsim.Second, // about 7 000 dispatches
		why:   "16 spanning-tree bridges under seeded link cuts, no data: ~1200 VM steps and ~2 events per op, so the VM's timer and BPDU paths do nearly all the work",
		build: buildChurn,
	},
	{
		name: "fabric-serial", frameLen: 1024, fanout: 2, dstMACs: 1,
		slice: 700 * netsim.Millisecond, sliceUnit: netsim.Millisecond, // about 15 000 frames
		why:   "256-bridge fat-tree with 34 concurrent ttcp streams on one engine: ~1000 frames in flight give a deep heap, three bridge hops per op and a set-up time that means something",
		build: func(cfg runCfg) (*instance, error) { return buildFabric(cfg, 1) },
	},
	{
		name: "fabric-shard2", frameLen: 1024, fanout: 2, dstMACs: 1, reference: "fabric-serial", byHand: true,
		slice: 700 * netsim.Millisecond, sliceUnit: netsim.Millisecond,
		why:   "fabric-serial's inputs on two shard engines: the only honest test of what the coordinator costs or buys on two cores",
		build: func(cfg runCfg) (*instance, error) { return buildFabric(cfg, 2) },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

var cost = netsim.DefaultCostModel()

// runFor is the step every workload shares: advance to the next multiple
// of a fixed span of virtual time, counted from the first step. Slice ends
// are absolute so that they do not depend on where the engine's clock came
// to rest after the previous Run, which a sharded engine and a serial one
// may report differently.
func runFor(net *topo.Net, d netsim.Duration) func() uint64 {
	var until netsim.Time
	return func() uint64 {
		if until == 0 {
			until = net.Sim.Now()
		}
		until = until.Add(d)
		return net.Sim.Run(until)
	}
}

// endlessBytes sizes a ttcp stream that no window can exhaust; stopTtcp
// later cuts it to what is already in flight.
const endlessBytes = 1 << 60

// stopTtcp ends a closed-loop stream: nothing more is sent, and the
// stream reports Done once the full window in flight has arrived — which
// it never does if a frame was lost.
func stopTtcp(t *workload.Ttcp, writeSize int) {
	t.Total = t.DeliveredBytes() + int64(t.Window*writeSize)
}

// --- fwd-stream / fwd-observed ------------------------------------------------

// buildPair is the paper's Fig. 7 testbed: two hosts, one learning
// bridge at the default tier, one closed-loop ttcp stream of 1024 B
// writes, window 32. observed switches the metrics and tracing planes on
// for the build.
func buildPair(cfg runCfg, observed bool) (*instance, error) {
	g := topo.New("bench-pair")
	h1, h2 := g.AddHost("h1"), g.AddHost("h2")
	br := g.AddBridge("br0", topo.LearningBridge, 2)
	lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
	g.Link(h1, lan1)
	g.Link(br, lan1)
	g.Link(h2, lan2)
	g.Link(br, lan2)
	g.Affine(h1, h2)

	if observed {
		metrics.Enable()
		// The sampler keeps its default seed whatever cfg.seed is: which
		// traces a seed keeps is close to all or nothing today (most seeds
		// keep none of this stream, some keep 1.3%), which moves
		// alloc_bytes_per_op by up to 30% between seeds.
		tracing.SetDefaultConfig(tracing.Config{SampleProb: 0.01})
		tracing.Enable()
		defer func() {
			metrics.SetEnabled(false)
			tracing.SetEnabled(false)
			tracing.SetDefaultConfig(tracing.Config{})
		}()
	}
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	in := &instance{net: net, segs: []topo.SegmentID{lan1, lan2}}
	const write = 1024
	tt := workload.NewTtcp(net.Host(h1), net.Host(h2), write, endlessBytes)
	in.warm = func() {
		net.Warm(h1, h2)
		net.Sim.Schedule(net.Sim.Now()+1, tt.Start)
	}
	in.step = runFor(net, cfg.slice)
	// ttcp has no reverse traffic: without a probe from h2 the bridge ages
	// h2 out after 300 virtual seconds and floods every frame after that.
	in.between = func() { net.Warm(h1, h2) }
	in.stop = func() { stopTtcp(tt, write) }
	in.check = func() []check {
		return []check{{Name: "stream drained", OK: tt.Done()}}
	}
	in.close = func() {
		if tr := net.Tracer(); tr != nil {
			tracing.DefaultHub.Detach(tr)
		}
		if net.Metrics() != nil {
			metrics.DefaultHub.Detach(g.Name)
		}
	}
	return in, nil
}

// --- locality-tree ------------------------------------------------------------

// localityInterval is the open loop's rate: one frame per 1.7 virtual ms.
const localityInterval = 1700 * netsim.Microsecond

// buildLocality is a 3-level tree: a root bridge, four branch bridges,
// sixteen shared leaf LANs of sixteen hosts each. One 256 B frame is sent
// every localityInterval (about 30% of the root bridge's capacity, so no
// queue grows), source uniform, destination from the LRU-stack model.
func buildLocality(cfg runCfg) (*instance, error) {
	const branches, lansPerBranch, hostsPerLAN = 4, 4, 16
	g := topo.New("bench-locality")
	in := &instance{}
	root := g.AddBridge("root", topo.LearningBridge, branches)
	var hosts []topo.HostID
	for b := 0; b < branches; b++ {
		up := g.AddSegment(fmt.Sprintf("up%d", b))
		br := g.AddBridge(fmt.Sprintf("branch%d", b), topo.LearningBridge, 1+lansPerBranch)
		g.Link(root, up)
		g.Link(br, up)
		in.segs = append(in.segs, up)
		for l := 0; l < lansPerBranch; l++ {
			lan := g.AddSegment(fmt.Sprintf("lan%d.%d", b, l))
			g.Link(br, lan)
			in.segs = append(in.segs, lan)
			for h := 0; h < hostsPerLAN; h++ {
				id := g.AddHost("")
				g.Link(id, lan)
				hosts = append(hosts, id)
			}
		}
	}
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	in.net = net
	sim := net.Sim

	in.warm = func() {
		// Every host announces itself once, a millisecond apart, so all
		// five learning tables hold all 256 MACs before the window opens.
		at := sim.Now()
		for i := range hosts {
			src, dst := net.Host(hosts[i]), net.Host(hosts[(i+1)%len(hosts)])
			sim.Schedule(at+netsim.Time(i)*netsim.Time(netsim.Millisecond), func() {
				_ = src.SendTest(dst.MAC, topo.WarmProbe())
			})
		}
		sim.Run(at + netsim.Time(len(hosts))*netsim.Time(netsim.Millisecond) + netsim.Time(100*netsim.Millisecond))
	}

	// The reference stream is materialised a slice ahead, outside the
	// timed call; one self-rescheduling event replays it, so the generator
	// adds one event to the heap, not one per frame.
	gen := newLocalityGen(cfg.seed, len(hosts))
	refs := make([]ref, cfg.slice/localityInterval)
	payload := make([]byte, 256)
	pos, stopped := len(refs), false
	var tick func()
	tick = func() {
		if stopped || pos >= len(refs) {
			return
		}
		r := refs[pos]
		pos++
		_ = net.Host(hosts[r.src]).SendTest(net.Host(hosts[r.dst]).MAC, payload)
		sim.Schedule(sim.Now().Add(localityInterval), tick)
	}
	in.between = func() {
		for i := range refs {
			refs[i] = gen.next()
		}
		pos = 0
		sim.Schedule(sim.Now(), tick)
	}
	in.step = runFor(net, cfg.slice)
	in.stop = func() { stopped = true }
	in.check = func() []check { return nil }
	return in, nil
}

// --- stp-churn ----------------------------------------------------------------

const (
	churnBridges = 16
	churnPeriod  = 40 * netsim.Second // one cut per period
	churnHeal    = 20 * netsim.Second // healed this long after the cut
)

// buildChurn is a ring of 16 spanning-tree bridges with a chord from
// each bridge to the one opposite (3 ports each, 24 segments), carrying
// no data traffic. Each churnPeriod one seeded segment is cut, then
// healed churnHeal later.
func buildChurn(cfg runCfg) (*instance, error) {
	g := topo.New("bench-churn")
	in := &instance{dispatchOps: true}
	ids := make([]topo.BridgeID, churnBridges)
	for i := range ids {
		ids[i] = g.AddBridge(fmt.Sprintf("b%d", i+1), topo.STPBridge, 3)
	}
	for i := range ids {
		seg := g.AddSegment(fmt.Sprintf("ring%d", i))
		g.Link(ids[i], seg)
		g.Link(ids[(i+1)%churnBridges], seg)
		in.segs = append(in.segs, seg)
	}
	for i := 0; i < churnBridges/2; i++ {
		seg := g.AddSegment(fmt.Sprintf("chord%d", i))
		g.Link(ids[i], seg)
		g.Link(ids[i+churnBridges/2], seg)
		in.segs = append(in.segs, seg)
	}
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	in.net = net
	sim := net.Sim

	rng := frand.Seeded(frand.DeriveSeed(cfg.seed, "stp-churn"))
	var nextCut, sliceEnd netsim.Time
	down := map[topo.SegmentID]bool{}
	// First convergence (MaxAge + 2 x ForwardDelay = 50 s) is set-up.
	in.warm = func() {
		sim.Run(sim.Now().Add(60 * netsim.Second))
		sliceEnd, nextCut = sim.Now(), sim.Now().Add(churnPeriod/4)
	}
	in.between = func() {
		// Materialise the cuts that fall inside the coming slice.
		for sliceEnd = sliceEnd.Add(cfg.slice); nextCut < sliceEnd; nextCut = nextCut.Add(churnPeriod) {
			seg := in.segs[rng.Uint64()%uint64(len(in.segs))]
			sim.Schedule(nextCut, func() { down[seg] = true; net.SetSegmentDown(seg, true) })
			sim.Schedule(nextCut.Add(churnHeal), func() { delete(down, seg); net.SetSegmentDown(seg, false) })
		}
	}
	in.step = runFor(net, cfg.slice)
	in.stop = func() {
		// Let pending heals fire, then give the tree one full
		// reconvergence bound before it is judged.
		sim.Run(sim.Now().Add(churnHeal + 60*netsim.Second))
	}
	in.check = func() []check {
		roots, blocked := stpRoots(net), blockedPorts(net)
		return []check{
			{Name: "all segments healed", OK: len(down) == 0, Detail: fmt.Sprintf("%d down", len(down))},
			{Name: "one root", OK: roots == 1, Detail: fmt.Sprintf("%d roots", roots)},
			{Name: "no forwarding loop", OK: loopFree(net), Detail: fmt.Sprintf("%d blocked ports", blocked)},
		}
	}
	return in, nil
}

// stpRoots counts the distinct roots the bridges' IEEE tree probes name;
// a converged tree has exactly one.
func stpRoots(net *topo.Net) int {
	roots := map[string]bool{}
	for _, b := range net.Bridges() {
		out, err := b.Manager().Query("ieee.tree", "")
		if err != nil {
			roots["error: "+err.Error()] = true
			continue
		}
		// tree_info renders "root=<hex> cost=<n> rp=<n> p0=<role> ..."
		if f := strings.Fields(out); len(f) > 0 && strings.HasPrefix(f[0], "root=") {
			roots[f[0]] = true
		}
	}
	return len(roots)
}

func blockedPorts(net *topo.Net) int {
	n := 0
	for _, b := range net.Bridges() {
		for p := 0; p < b.NumPorts(); p++ {
			if b.PortBlocked(p) {
				n++
			}
		}
	}
	return n
}

// loopFree checks that segments joined through unblocked bridge ports
// form a forest: union-find over segments, where joining two segments
// already connected is a forwarding loop.
func loopFree(net *topo.Net) bool {
	parent := map[*netsim.Segment]*netsim.Segment{}
	var find func(s *netsim.Segment) *netsim.Segment
	find = func(s *netsim.Segment) *netsim.Segment {
		if p, ok := parent[s]; ok && p != s {
			r := find(p)
			parent[s] = r
			return r
		}
		parent[s] = s
		return s
	}
	for _, b := range net.Bridges() {
		var first *netsim.Segment
		for p := 0; p < b.NumPorts(); p++ {
			seg := b.Port(p).Segment()
			if seg == nil || seg.Down() || b.PortBlocked(p) {
				continue
			}
			if first == nil {
				first = seg
				continue
			}
			ra, rb := find(first), find(seg)
			if ra == rb {
				return false
			}
			parent[rb] = ra
		}
	}
	return true
}

// --- fabric-serial / fabric-shard2 ---------------------------------------------

// buildFabric is the scale-fattree256 shape: one core bridge, 15
// aggregation bridges on 5 us trunks, 240 edge bridges on 2 us risers,
// 960 hosts on 240 edge LANs. 34 closed-loop 1024 B ttcp streams run at
// once: two inside every pod and four across pods through the core.
func buildFabric(cfg runCfg, shards int) (*instance, error) {
	const pods, edgesPerPod, hostsPerEdge = 15, 16, 4
	g := topo.New("bench-fabric")
	in := &instance{}
	core := g.AddBridge("core", topo.LearningBridge, pods)
	edgeHosts := make([][]topo.HostID, 0, pods*edgesPerPod)
	for p := 0; p < pods; p++ {
		trunk := g.AddSegment(fmt.Sprintf("trunk%d", p), topo.WithPropagation(5*netsim.Microsecond))
		agg := g.AddBridge(fmt.Sprintf("agg%d", p), topo.LearningBridge, 1+edgesPerPod)
		g.Link(core, trunk)
		g.Link(agg, trunk)
		in.segs = append(in.segs, trunk)
		for e := 0; e < edgesPerPod; e++ {
			riser := g.AddSegment(fmt.Sprintf("riser%d.%d", p, e), topo.WithPropagation(2*netsim.Microsecond))
			eb := g.AddBridge(fmt.Sprintf("edge%d.%d", p, e), topo.LearningBridge, 2)
			lan := g.AddSegment(fmt.Sprintf("lan%d.%d", p, e))
			g.Link(agg, riser)
			g.Link(eb, riser)
			g.Link(eb, lan)
			in.segs = append(in.segs, riser, lan)
			var hs []topo.HostID
			for h := 0; h < hostsPerEdge; h++ {
				id := g.AddHost("")
				g.Link(id, lan)
				hs = append(hs, id)
			}
			edgeHosts = append(edgeHosts, hs)
		}
	}
	type flow struct{ src, dst topo.HostID }
	var flows []flow
	for p := 0; p < pods; p++ {
		flows = append(flows,
			flow{edgeHosts[p*edgesPerPod+2][0], edgeHosts[p*edgesPerPod+9][1]},
			flow{edgeHosts[p*edgesPerPod+5][2], edgeHosts[p*edgesPerPod+12][3]})
	}
	for i := 0; i < 4; i++ {
		flows = append(flows, flow{edgeHosts[(3*i+1)*edgesPerPod+4][2], edgeHosts[((3*i+8)%pods)*edgesPerPod+11][3]})
	}
	// The receiver of a ttcp stream releases the sender's next segment
	// directly, so each pair has to share a shard.
	for _, f := range flows {
		g.Affine(f.src, f.dst)
	}
	g.Shards(shards)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	in.net = net
	sim := net.Sim

	const write = 1024
	var streams []*workload.Ttcp
	for _, f := range flows {
		streams = append(streams, workload.NewTtcp(net.Host(f.src), net.Host(f.dst), write, endlessBytes))
	}
	// Each pair's probes get the fabric to themselves: the first probe of
	// a pair floods, and two floods meeting at one bridge in the same
	// nanosecond are learned in an order a sharded run does not reproduce
	// (the hash chains then differ, and with them later step counts).
	// Stream starts are a nanosecond apart for the same reason.
	const probeGap = 5 * netsim.Millisecond
	rewarm := func() {
		at := sim.Now()
		for i, f := range flows {
			src, dst := net.Host(f.src), net.Host(f.dst)
			sim.Schedule(at.Add(netsim.Duration(2*i)*probeGap), func() { _ = src.SendTest(dst.MAC, topo.WarmProbe()) })
			sim.Schedule(at.Add(netsim.Duration(2*i+1)*probeGap), func() { _ = dst.SendTest(src.MAC, topo.WarmProbe()) })
		}
		sim.Run(at.Add(netsim.Duration(2*len(flows)+10) * probeGap))
	}
	in.warm = func() {
		rewarm()
		for i, tt := range streams {
			sim.Schedule(sim.Now()+1+netsim.Time(i), tt.Start)
		}
	}
	in.step = runFor(net, cfg.slice)
	// The receivers never send, so refresh the learning tables well
	// inside the 300 s age-out.
	lastWarm := netsim.Time(0)
	in.between = func() {
		if sim.Now().Sub(lastWarm) > 100*netsim.Second {
			rewarm()
			lastWarm = sim.Now()
		}
	}
	in.stop = func() {
		for _, tt := range streams {
			stopTtcp(tt, write)
		}
	}
	in.check = func() []check {
		done := 0
		for _, tt := range streams {
			if tt.Done() {
				done++
			}
		}
		return []check{
			{Name: "streams drained", OK: done == len(streams), Detail: fmt.Sprintf("%d of %d", done, len(streams))},
			{Name: "shard engines", OK: net.Shards() == shards, Detail: fmt.Sprintf("%d", net.Shards())},
		}
	}
	return in, nil
}
