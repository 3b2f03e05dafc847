// Ring agility: the paper's §7.5 function-agility measurement. A
// measurement node with two interfaces and three active bridges chained
// between them; inject one 802.1D BPDU and measure (a) how fast the whole
// chain switches protocols and (b) how long until a ping crosses the
// re-converging spanning tree.
//
// The second half repeats the protocol switch-over through the public SDK
// (pkg/activebridge): the same three-bridge chain, upgraded node by node
// with Manager.Upgrade instead of an in-network control switchlet, and
// timed until data crosses the re-converged tree again.
package main

import (
	"fmt"

	"github.com/switchware/activebridge/internal/experiments"
	ab "github.com/switchware/activebridge/pkg/activebridge"
)

func main() {
	tbl, res, err := experiments.AgilityRing(ab.DefaultCostModel())
	if err != nil {
		panic(err)
	}
	fmt.Println(tbl)
	fmt.Printf("reconfiguration latency %.0f ms is dwarfed by the %.0f s protocol\n",
		float64(res.StartToIEEE)/1e6, float64(res.StartToPing)/1e9)
	fmt.Println("timers built into 802.1D 'to ensure that temporary loops do not occur' —")
	fmt.Println("the active technology is not the bottleneck, exactly the paper's result.")

	fmt.Println()
	fmt.Println("== the same switch-over, driven through the SDK ==")
	sdkChainUpgrade()
}

// sdkChainUpgrade upgrades a 3-bridge chain DEC -> IEEE through each
// node's Manager and measures how long until test traffic crosses the
// re-converging tree.
func sdkChainUpgrade() {
	const nBridges = 3
	g := ab.NewTopology("sdk-agility")
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	segs := make([]ab.SegmentID, nBridges+1)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("s%d", i))
	}
	brs := make([]ab.BridgeID, nBridges)
	for i := 0; i < nBridges; i++ {
		brs[i] = g.AddBridge(fmt.Sprintf("b%d", i+1), ab.EmptyBridge, 2)
		g.Link(brs[i], segs[i])
		g.Link(brs[i], segs[i+1])
	}
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges])
	net, err := g.Build(ab.DefaultCostModel())
	if err != nil {
		panic(err)
	}
	for _, id := range brs {
		mgr := net.Bridge(id).Manager()
		for _, sw := range []ab.Switchlet{ab.LearningSwitchlet(), ab.DECSwitchlet()} {
			if _, err := mgr.Install(sw); err != nil {
				panic(err)
			}
		}
	}
	net.Sim.Run(ab.Time(40 * ab.Second)) // DEC converges

	opts := ab.DefaultUpgradeOptions()
	start := net.Sim.Now()
	ups := make([]*ab.Upgrade, 0, nBridges)
	net.Sim.Schedule(start+1, func() {
		for _, id := range brs {
			u, err := net.Bridge(id).Manager().Upgrade("Decspan", ab.SpanningSwitchlet(), opts)
			if err != nil {
				panic(err)
			}
			ups = append(ups, u)
		}
	})

	// Probe once per virtual second until a frame crosses the chain.
	host2 := net.Host(h2)
	var crossedAt ab.Time
	for i := 1; i <= 90; i++ {
		net.Sim.Schedule(net.Sim.Now()+1, func() {
			_ = net.Host(h1).SendTest(host2.MAC, make([]byte, 64))
		})
		before := host2.FramesIn
		net.Sim.Run(start + ab.Time(ab.Duration(i)*ab.Second))
		if host2.FramesIn > before {
			crossedAt = net.Sim.Now()
			break
		}
	}
	if crossedAt == 0 {
		fmt.Println("  no data crossed the chain within 90 s — upgrade did not converge")
	} else {
		fmt.Printf("  start to data across the chain: %.1f s (forward-delay bound, as measured)\n",
			(crossedAt - start).Seconds())
	}
	for i, u := range ups {
		fmt.Printf("  b%d: %s -> %s state=%v\n", i+1,
			u.Old().Manifest.Ref(), u.New().Manifest.Ref(), u.State())
	}
}
