package experiments

import (
	"fmt"
	"strings"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// This file holds the chaos scenario family: the robustness claims of the
// deployment story (§5.2) and the protocol transition (§5.4) exercised
// under the deterministic fault plane. Every scenario is seeded — same
// plan, same faults, same fingerprint at any shard count — which is what
// turns "it survives failures" from a demo into a pinned regression test.

// stpBound is the worst-case 802.1D reconvergence time after a topology
// change: the stale root vector ages out (MaxAge) and the replacement
// port walks listening and learning (2 × ForwardDelay) before it
// forwards — 20 s + 2×15 s = 50 s with the standard timers.
const stpBound = 50 * netsim.Second

// ChaosLossyDeployment reruns the §5.2 incremental-deployment story over
// an impaired fabric: every segment drops 5% of frames, corrupts 1% and
// duplicates 1%, from a seeded plan. The switchlet uploads now depend on
// the TFTP client's timeout/retransmit machinery — each transfer must
// complete, and the retransmit counts prove the faults were really in the
// path (the pinned "deployment over a lossy link" test).
func ChaosLossyDeployment(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Chaos: incremental deployment over 5%-loss segments (seeded)",
		Header: []string{"target", "upload", "retransmits", "elapsed (s)"},
	}
	const n = 3

	// Same shape as deployment-incremental: admin -- s0 -- b1 -- s1 -- b2
	// -- s2 -- b3 -- s3, every segment impaired.
	g := topo.New("chaos-lossy-deployment")
	segs, bIDs := span(g, n, false, "s", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.EmptyBridge, 2,
			topo.WithBridgeID(byte(i+1)),
			topo.WithNetLoader(ipv4.Addr{10, 0, 0, byte(100 + i)}))
	})
	adminID := g.AddHost("admin")
	g.Link(adminID, segs[0])
	g.FaultPlan(fault.NewPlan(0xC4A05).
		AllSegments(fault.Model{Drop: 0.05, Corrupt: 0.01, Duplicate: 0.01}))
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim, admin := net.Sim, net.Host(adminID)

	var totalRetx uint64
	for i := range bIDs {
		b := net.Bridge(bIDs[i])
		enc, err := b.Manager().Compile(switchlets.LearningManifest())
		if err != nil {
			return nil, err
		}
		up := workload.NewUploader(admin, b.NetLoaderAddr(), "learning.swo", enc)
		sim.Schedule(sim.Now()+1, up.Start)
		// Generous window: the retry ladder (1s..8s backoff, budget 8 per
		// datagram) needs up to ~a minute in the worst case. The uploader
		// records its own completion instant, so running the full window
		// does not blur the elapsed column.
		sim.Run(sim.Now() + netsim.Time(120*netsim.Second))
		status := "ok"
		if !up.Done() {
			status = fmt.Sprintf("FAILED: %v", up.Err())
		}
		t.Expect(up.Done(), "upload to %s did not complete: %v", b.Name, up.Err())
		totalRetx += up.Retransmits()
		t.AddRow(b.Name, status, fmt.Sprintf("%d", up.Retransmits()),
			fmt.Sprintf("%.3f", up.Elapsed().Seconds()))
	}

	var drops, corrupts, dups uint64
	for _, s := range segs {
		drops += net.Segment(s).FaultDrops
		corrupts += net.Segment(s).FaultCorrupts
		dups += net.Segment(s).FaultDups
	}
	t.Expect(totalRetx >= 1, "no retransmissions under 5%% loss; fault plane not engaged")
	t.AddRow("(fabric)", fmt.Sprintf("injected drop=%d corrupt=%d dup=%d", drops, corrupts, dups),
		fmt.Sprintf("%d", totalRetx), "-")
	t.AddNote("every transfer survives a fabric that eats ~6%% of frames per hop; loss costs retransmissions, not deployments")
	return t, nil
}

// ChaosFlappingRing runs an 8-bridge STP ring under a ttcp stream, then
// cuts the loaded transit segment mid-stream and heals it later. The
// spanning tree must route around the cut within the 802.1D bound
// (stpBound), survive the heal without a storm, and end with a single
// root, no forwarding loop, and working delivery.
func ChaosFlappingRing(cost netsim.CostModel) (*report.Table, error) {
	const nBridges = 8
	t := &report.Table{
		Title:  "Chaos: 8-bridge STP ring, transit link flap under ttcp",
		Header: []string{"metric", "value"},
	}
	g := topo.New("chaos-flapping-ring")
	segs, _ := span(g, nBridges, true, "r", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.STPBridge, 2)
	})
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges/2])
	g.Affine(h1, h2) // closed-loop ttcp pair (see Chain16)
	// Fresh probe pair on the transit segments, silent until the cut:
	// their MACs stay unlearned, so probe frames flood along whatever
	// tree currently forwards. The measurement pair (h1/h2) cannot probe
	// resumption — bridges hold their MACs against the dead arc until
	// the 300 s learning age-out, far beyond the 802.1D bound.
	h3 := g.AddHost("")
	h4 := g.AddHost("")
	g.Link(h3, segs[1])
	g.Link(h4, segs[nBridges/2+1])
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim
	sim.MaxEvents = 20_000_000 // storm guard
	sim.Run(netsim.Time(45 * netsim.Second))
	blockedBefore := blockedPorts(net)

	net.Warm(h1, h2)
	tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 64<<20)
	sim.Schedule(sim.Now()+1, tr.Start)
	sim.Run(sim.Now() + netsim.Time(10*netsim.Second))

	// Cut whichever transit segment the stream is actually riding — the
	// tree decides which arc carries r0→r4 traffic, so compare the two
	// candidates' frame counters (deterministic at any shard count: the
	// control engine reads them at a barrier).
	r2, r6 := net.Segment(segs[2]), net.Segment(segs[6])
	base2, base6 := r2.Frames, r6.Frames
	var cutID topo.SegmentID
	cutAt := sim.Now() + netsim.Time(5*netsim.Second)
	sim.Schedule(cutAt, func() {
		cutID = segs[2]
		if r6.Frames-base6 > r2.Frames-base2 {
			cutID = segs[6]
		}
		net.SetSegmentDown(cutID, true)
	})
	healAt := cutAt + netsim.Time(85*netsim.Second)
	sim.Schedule(healAt, func() { net.SetSegmentDown(cutID, false) })

	// Probe for delivery resumption: one ping per 2 s window until one
	// completes. Build's static neighbor directory spares the probe ARP,
	// so each probe is one unknown-unicast frame. The alternate arc must open within stpBound of the cut
	// (the gap is quantized up to the window end, so checks allow +2 s).
	sim.Run(cutAt + 1)
	deliveredAtCut := tr.DeliveredBytes()
	gap := -netsim.Second
	for sim.Now() < cutAt+netsim.Time(80*netsim.Second) {
		p := workload.NewPinger(net.Host(h3), net.Host(h4).IP, 64, 1)
		p.Run(sim.Now() + netsim.Time(2*netsim.Second))
		if p.Completed() == 1 {
			gap = sim.Now().Sub(netsim.Time(cutAt))
			break
		}
	}

	// Past the heal: let the tree re-block the restored arc, then check
	// the invariants and that delivery still works under fresh load.
	sim.Run(healAt + netsim.Time(55*netsim.Second))
	roots := stpRoots(net)
	loopFree := forwardingLoopFree(net)
	blockedAfter := blockedPorts(net)

	post := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 1<<20)
	post.Run(sim.Now() + netsim.Time(120*netsim.Second))
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(sim.Now() + netsim.Time(30*netsim.Second))

	// Storm check: an idle post-heal ring carries hello BPDUs and nothing
	// else.
	quietStart := frameTotal(net, segs)
	sim.Run(sim.Now() + netsim.Time(10*netsim.Second))
	quiet := frameTotal(net, segs) - quietStart

	// +4 s: one 2 s probe window of quantization plus settle.
	t.Expect(gap >= 0 && gap <= stpBound+4*netsim.Second, "delivery gap %v exceeds the %v reconvergence bound", gap, stpBound)
	t.Expect(roots == 1, "tree did not reconverge to one root: %d", roots)
	t.Expect(loopFree, "forwarding loop after heal")
	t.Expect(post.Done(), "post-heal transfer did not complete")
	t.Expect(p.Completed() == 5, "pings incomplete after heal: %d/5", p.Completed())
	t.Expect(quiet <= 2000, "storm after heal: %d frames in the quiet window", quiet)
	t.AddRow("ports blocked before cut", fmt.Sprintf("%d", blockedBefore))
	t.AddRow("ttcp MB delivered before cut", fmt.Sprintf("%.1f", float64(deliveredAtCut)/(1<<20)))
	t.AddRow("delivery gap after cut (s)", fmt.Sprintf("%.3f", gap.Seconds()))
	t.AddRow("distinct roots after heal", fmt.Sprintf("%d", roots))
	t.AddRow("forwarding loop after heal", fmt.Sprintf("%v", !loopFree))
	t.AddRow("ports blocked after heal", fmt.Sprintf("%d", blockedAfter))
	t.AddRow("post-heal ttcp complete", fmt.Sprintf("%v", post.Done()))
	t.AddRow("pings after heal", fmt.Sprintf("%d/5", p.Completed()))
	t.AddRow("frames in 10s quiet window", fmt.Sprintf("%d", quiet))
	t.AddNote("the closed-loop stream stalls with the cut (no transport retransmission); the tree reopens the ring within MaxAge + 2×ForwardDelay and fresh traffic flows")
	return t, nil
}

// ChaosCrashUpgrade crashes a bridge in the middle of its DEC→IEEE
// upgrade validation window. The upgrade must roll back (a crashed
// bridge cannot commit), the cold restart must re-install the manifest
// snapshot with the OLD protocol running, and connectivity must return —
// the pinned "fault during the validation window" test, in its harshest
// form.
func ChaosCrashUpgrade(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Chaos: bridge crash during DEC→IEEE upgrade validation",
		Header: []string{"metric", "value"},
	}
	// h1 -- s0 -- b1 -- s1 -- b2 -- s2 -- h2, learning + DEC on both.
	g := topo.New("chaos-crash-upgrade")
	segs, bIDs := span(g, 2, false, "s", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.EmptyBridge, 2)
	})
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	g.Link(h1, segs[0])
	g.Link(h2, segs[2])
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim
	b1 := net.Bridge(bIDs[0])
	for _, id := range bIDs {
		m := net.Bridge(id).Manager()
		if _, err := m.Install(switchlets.LearningManifest()); err != nil {
			return nil, err
		}
		if _, err := m.Install(switchlets.DECManifest()); err != nil {
			return nil, err
		}
	}
	sim.Run(netsim.Time(40 * netsim.Second)) // DEC converges
	net.Warm(h1, h2)

	// Upgrade b1 and crash it squarely inside the validation window.
	opts := bridge.UpgradeOptions{
		SuppressFor:   10 * netsim.Second,
		ValidateAfter: 30 * netsim.Second,
	}
	var u *bridge.Upgrade
	upAt := sim.Now() + netsim.Time(netsim.Second)
	sim.Schedule(upAt, func() {
		u, err = b1.Manager().Upgrade(switchlets.ModDEC, switchlets.SpanningManifest(), opts)
	})
	sim.Schedule(upAt+netsim.Time(15*netsim.Second), func() {
		b1.Crash()
		fault.NoteCrash()
	})
	sim.Schedule(upAt+netsim.Time(20*netsim.Second), func() {
		if rerr := b1.Restart(); rerr != nil {
			b1.Log("restart: " + rerr.Error())
		}
		fault.NoteRestart()
	})
	// Run past ValidateAfter (the stale validate() fire must be a no-op
	// on the rolled-back upgrade) and through the restarted DEC tree's
	// pre-forwarding delay, so the connectivity probe sees a settled
	// bridge rather than a port still in listening.
	sim.Run(upAt + netsim.Time(65*netsim.Second))
	if err != nil {
		return nil, fmt.Errorf("upgrade: %w", err)
	}
	if u == nil {
		return nil, fmt.Errorf("upgrade never started")
	}

	decRunning, qerr := b1.Manager().Query("dec.running", "")
	if qerr != nil {
		decRunning = "<" + qerr.Error() + ">"
	}
	_, ieeeInstalled := b1.Manager().Installed(switchlets.ModSpanning)

	// Cold learning tables: connectivity must come back via re-flooding.
	net.Warm(h1, h2)
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(sim.Now() + netsim.Time(30*netsim.Second))

	t.Expect(u.State() == bridge.UpgradeRolledBack, "upgrade state %v, want rolled-back", u.State())
	t.Expect(strings.Contains(u.Reason, "crashed during validation"), "rollback reason %q does not name the crash", u.Reason)
	t.Expect(b1.Stats.Crashes == 1 && b1.Stats.Restarts == 1, "crash/restart counts %d / %d, want 1 / 1", b1.Stats.Crashes, b1.Stats.Restarts)
	t.Expect(decRunning == "yes", "DEC not running after restart: %s", decRunning)
	t.Expect(!ieeeInstalled, "the crashed-away IEEE switchlet reappeared after restart")
	t.Expect(p.Completed() == 5, "connectivity did not return: %d/5", p.Completed())
	t.AddRow("upgrade state", u.State().String())
	t.AddRow("rollback reason", u.Reason)
	t.AddRow("crashes / restarts", fmt.Sprintf("%d / %d", b1.Stats.Crashes, b1.Stats.Restarts))
	t.AddRow("DEC running after restart", decRunning)
	t.AddRow("IEEE still installed", fmt.Sprintf("%v", ieeeInstalled))
	t.AddRow("pings after restart", fmt.Sprintf("%d/5", p.Completed()))
	t.AddNote("a crash inside the validation window can never be a commit: the snapshot restores the OLD protocol, and the late validate() fire is a no-op")
	return t, nil
}

// ChaosPartitionHeal drives a 6-bridge STP ring entirely from a declared
// fault plan: a scheduled partition (one ring segment cut) and a
// scheduled heal, with the tree expected to reconverge after each and
// the healed ring expected to carry hellos only — the storm check.
func ChaosPartitionHeal(cost netsim.CostModel) (*report.Table, error) {
	const nBridges = 6
	t := &report.Table{
		Title:  "Chaos: plan-scheduled partition and heal on a 6-bridge STP ring",
		Header: []string{"metric", "value"},
	}
	g := topo.New("chaos-partition-heal")
	segs, _ := span(g, nBridges, true, "r", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.STPBridge, 2)
	})
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges/2])
	g.FaultPlan(fault.NewPlan(0xFA17).
		At(50*netsim.Second, fault.OpLinkDown, "r1").
		At(90*netsim.Second, fault.OpLinkUp, "r1"))
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim := net.Sim
	sim.MaxEvents = 20_000_000 // storm guard

	sim.Run(netsim.Time(45 * netsim.Second))
	net.Warm(h1, h2)

	// Observe the partition while it holds.
	var downMid bool
	sim.Schedule(netsim.Time(70*netsim.Second), func() {
		downMid = net.Segment(segs[1]).Down()
	})

	// Run well past the heal plus a full reconvergence bound.
	sim.Run(netsim.Time(90*netsim.Second) + netsim.Time(stpBound) + netsim.Time(10*netsim.Second))
	roots := stpRoots(net)
	loopFree := forwardingLoopFree(net)
	blocked := blockedPorts(net)

	net.Warm(h1, h2)
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 5)
	p.Run(sim.Now() + netsim.Time(30*netsim.Second))

	quietStart := frameTotal(net, segs)
	sim.Run(sim.Now() + netsim.Time(10*netsim.Second))
	quiet := frameTotal(net, segs) - quietStart

	t.Expect(downMid, "plan event did not cut the segment")
	t.Expect(roots == 1, "tree did not reconverge to one root: %d", roots)
	t.Expect(loopFree, "forwarding loop after heal")
	t.Expect(blocked >= 1, "healed ring has no blocked port: loop not re-broken")
	t.Expect(p.Completed() == 5, "pings incomplete after heal: %d/5", p.Completed())
	t.Expect(quiet <= 2000, "storm after heal: %d frames in the quiet window", quiet)
	t.AddRow("segment down at t=70s", fmt.Sprintf("%v", downMid))
	t.AddRow("distinct roots after heal", fmt.Sprintf("%d", roots))
	t.AddRow("forwarding loop after heal", fmt.Sprintf("%v", !loopFree))
	t.AddRow("ports blocked after heal", fmt.Sprintf("%d", blocked))
	t.AddRow("pings after heal", fmt.Sprintf("%d/5", p.Completed()))
	t.AddRow("frames in 10s quiet window", fmt.Sprintf("%d", quiet))
	t.AddNote("the plan is the whole experiment: partition and heal are declared events, and the tree's invariants hold on the far side of both")
	return t, nil
}

// --- STP invariant helpers ---------------------------------------------------

// blockedPorts counts ports the spanning tree holds blocked.
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

// frameTotal sums the frame counters of the given segments.
func frameTotal(net *topo.Net, segs []topo.SegmentID) uint64 {
	var v uint64
	for _, s := range segs {
		v += net.Segment(s).Frames
	}
	return v
}

// stpRoots queries every live bridge's IEEE tree probe and counts the
// distinct roots — a converged tree has exactly one.
func stpRoots(net *topo.Net) int {
	roots := map[string]bool{}
	for _, b := range net.Bridges() {
		if b.Crashed() {
			continue
		}
		out, err := b.Manager().Query("ieee.tree", "")
		if err != nil {
			continue
		}
		// tree_info renders "root=<hex> cost=<n> rp=<n> p0=<role> ..."
		if f := strings.Fields(out); len(f) > 0 && strings.HasPrefix(f[0], "root=") {
			roots[f[0]] = true
		}
	}
	return len(roots)
}

// forwardingLoopFree checks the global no-loop invariant: the graph of
// segments connected through unblocked, live bridge ports must be a
// forest. Union-find over segments; a union of two already-connected
// components is a forwarding loop.
func forwardingLoopFree(net *topo.Net) bool {
	parent := map[*netsim.Segment]*netsim.Segment{}
	var find func(s *netsim.Segment) *netsim.Segment
	find = func(s *netsim.Segment) *netsim.Segment {
		p, ok := parent[s]
		if !ok || p == s {
			parent[s] = s
			return s
		}
		r := find(p)
		parent[s] = r
		return r
	}
	for _, b := range net.Bridges() {
		if b.Crashed() {
			continue
		}
		var first *netsim.Segment
		for p := 0; p < b.NumPorts(); p++ {
			nic := b.Port(p)
			seg := nic.Segment()
			if seg == nil || seg.Down() || nic.LinkDown() || b.PortBlocked(p) {
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
