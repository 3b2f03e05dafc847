// Protocol transition: the paper's §5.4 headline demonstration. Two active
// bridges run an old DEC-style spanning tree; the new 802.1D protocol and a
// control switchlet are loaded alongside it. One injected 802.1D BPDU
// upgrades the whole network on the fly; validation failures trigger
// automatic fallback to the old protocol.
//
// Scenarios A and B run the fully in-network version (the control
// switchlet reacting to observed protocol traffic). Scenario C drives the
// identical transition through the public SDK instead: Manager.Upgrade,
// the paper's Table 1 machinery as a host API.
package main

import (
	"fmt"

	"github.com/switchware/activebridge/internal/experiments"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	ab "github.com/switchware/activebridge/pkg/activebridge"
)

func main() {
	cost := netsim.DefaultCostModel()

	fmt.Println("### Scenario A: correct 802.1D switchlet — transition completes ###")
	runScenario(cost, switchlets.SpanningSrc)

	fmt.Println()
	fmt.Println("### Scenario B: buggy 802.1D switchlet — automatic fallback ###")
	fmt.Println("(the buggy variant elects the HIGHEST bridge id as root;")
	fmt.Println(" the control switchlet detects the tree mismatch at t+60s)")
	fmt.Println()
	runScenario(cost, switchlets.BuggySpanningSrc)

	fmt.Println()
	fmt.Println("### Scenario C: the same transition as a library call (pkg/activebridge) ###")
	runSDKUpgrade()
}

func runScenario(cost netsim.CostModel, spanningSrc string) {
	tn, err := experiments.NewTransitionNet(2, spanningSrc, cost)
	if err != nil {
		panic(err)
	}
	// Let DEC converge, then trigger the upgrade.
	tn.Sim.Run(netsim.Time(40 * netsim.Second))
	at := tn.Sim.Now()
	tn.Sim.Schedule(at+1, func() { tn.InjectIEEE() })
	tn.Sim.Run(at + netsim.Time(90*netsim.Second))

	fmt.Println("--- switchlet log ---")
	for _, l := range tn.Logs {
		fmt.Println(" ", l)
	}
	fmt.Println("--- final state ---")
	for i, b := range tn.Bridges {
		fmt.Printf("  b%d: dec.running=%s ieee.running=%s control.phase=%s\n",
			i+1, tn.Query(b, "dec.running"), tn.Query(b, "ieee.running"),
			tn.Query(b, "control.phase"))
	}
}

// runSDKUpgrade performs the DEC→IEEE transition with no control
// switchlet at all: the operator upgrades each node through its Manager,
// and the runtime provides capture, atomic handoff, suppression,
// validation and rollback.
func runSDKUpgrade() {
	g := ab.NewTopology("sdk-transition")
	var logs []string
	sink := func(at ab.Time, br, msg string) {
		logs = append(logs, fmt.Sprintf("%8.3fs %s: %s", at.Seconds(), br, msg))
	}
	b1 := g.AddBridge("b1", ab.EmptyBridge, 2, ab.WithLogSink(sink))
	b2 := g.AddBridge("b2", ab.EmptyBridge, 2, ab.WithLogSink(sink))
	lan1, lan2, lan3 := g.AddSegment("lan1"), g.AddSegment("lan2"), g.AddSegment("lan3")
	g.Link(b1, lan1)
	g.Link(b1, lan2)
	g.Link(b2, lan2)
	g.Link(b2, lan3)
	net, err := g.Build(ab.DefaultCostModel())
	if err != nil {
		panic(err)
	}
	bridges := []*ab.Bridge{net.Bridge(b1), net.Bridge(b2)}
	for _, b := range bridges {
		for _, sw := range []ab.Switchlet{ab.LearningSwitchlet(), ab.DECSwitchlet()} {
			if _, err := b.Manager().Install(sw); err != nil {
				panic(err)
			}
		}
	}
	net.Sim.Run(ab.Time(40 * ab.Second)) // DEC converges

	opts := ab.DefaultUpgradeOptions()
	var ups []*ab.Upgrade
	at := net.Sim.Now()
	net.Sim.Schedule(at+1, func() {
		for _, b := range bridges {
			u, err := b.Manager().Upgrade("Decspan", ab.SpanningSwitchlet(), opts)
			if err != nil {
				panic(err)
			}
			ups = append(ups, u)
		}
	})
	net.Sim.Run(at + ab.Time(70*ab.Second))

	fmt.Println("--- manager + switchlet log ---")
	for _, l := range logs {
		fmt.Println(" ", l)
	}
	fmt.Println("--- final state ---")
	for i, u := range ups {
		fmt.Printf("  b%d: %s -> %s state=%v suppressed=%d\n",
			i+1, u.Old().Manifest.Ref(), u.New().Manifest.Ref(), u.State(), u.Suppressed())
	}
}
