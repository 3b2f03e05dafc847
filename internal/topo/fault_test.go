package topo

import (
	"testing"

	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/workload"
)

// TestPlanEventsCountOnlyEffectiveTransitions: the per-element counters
// are the fault plane's only counts, so a plan event that finds its
// target already in the requested state must change and count nothing.
// The plan crashes and restarts the bridge twice each and pulls one of
// its ports twice; only the first of each pair does anything.
func TestPlanEventsCountOnlyEffectiveTransitions(t *testing.T) {
	g, h1, h2, br := twoLAN(LearningBridge)
	g.FaultPlan(fault.NewPlan(1).
		At(1*netsim.Second, fault.OpCrash, "br0").
		At(2*netsim.Second, fault.OpCrash, "br0").
		At(3*netsim.Second, fault.OpRestart, "br0").
		At(4*netsim.Second, fault.OpRestart, "br0").
		AtPort(20*netsim.Second, fault.OpPortDown, "br0", 1).
		AtPort(21*netsim.Second, fault.OpPortDown, "br0", 1))
	net := g.MustBuild(netsim.DefaultCostModel())
	b := net.Bridge(br)
	step := func(at netsim.Duration) { net.Sim.Run(netsim.Time(at)) }

	step(2500 * netsim.Millisecond)
	if !b.Crashed() || b.Stats.Crashes != 1 {
		t.Fatalf("after two crash events: crashed=%v Crashes=%d, want true/1", b.Crashed(), b.Stats.Crashes)
	}
	step(4500 * netsim.Millisecond)
	if b.Crashed() || b.Stats.Restarts != 1 {
		t.Fatalf("after two restart events: crashed=%v Restarts=%d, want false/1", b.Crashed(), b.Stats.Restarts)
	}
	// The cold restart reinstalled the learning switchlet: traffic flows.
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 2)
	p.Run(netsim.Time(15 * netsim.Second))
	if p.Completed() != 2 {
		t.Fatalf("pings after restart = %d, want 2", p.Completed())
	}
	step(22 * netsim.Second)
	if !b.Port(1).LinkDown() || b.Port(0).LinkDown() {
		t.Errorf("port links = %v/%v, want up/down", b.Port(0).LinkDown(), b.Port(1).LinkDown())
	}
	if b.Stats.Crashes != 1 || b.Stats.Restarts != 1 {
		t.Errorf("Crashes/Restarts = %d/%d, want 1/1", b.Stats.Crashes, b.Stats.Restarts)
	}
}
