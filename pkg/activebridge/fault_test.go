package activebridge_test

import (
	"testing"

	ab "github.com/switchware/activebridge/pkg/activebridge"
)

// buildLossyLine declares h1 - s0 - bridge - s1 - h2 with a seeded
// blanket impairment model and one scheduled segment cut, through the
// public SDK surface only. It returns the fingerprint after a fixed
// drive.
func lossyLineFingerprint(t *testing.T, seed uint64) (fp string, s1Down bool, drops uint64) {
	t.Helper()
	ab.ResetFaultTotals()
	g := ab.NewTopology("sdk-fault")
	s0 := g.AddSegment("s0")
	s1 := g.AddSegment("s1")
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	b := g.AddBridge("", ab.LearningBridge, 2)
	g.Link(b, s0)
	g.Link(b, s1)
	g.Link(h1, s0)
	g.Link(h2, s1)
	g.FaultPlan(ab.NewFaultPlan(seed).
		AllSegments(ab.FaultModel{Drop: 0.2, Duplicate: 0.05}).
		At(2*ab.Second, ab.FaultLinkDown, "s1"))
	net := g.MustBuild(ab.DefaultCostModel())

	// A steady broadcast-learnable stream: enough frames that a 20% drop
	// model is statistically certain to fire.
	src, dst := net.Host(h1), net.Host(h2)
	for i := 0; i < 100; i++ {
		at := net.Sim.Now() + ab.Time(i)*ab.Time(10*ab.Millisecond)
		net.Sim.Schedule(at, func() { src.SendTest(dst.MAC, make([]byte, 200)) })
	}
	net.Sim.Run(net.Sim.Now() + ab.Time(3*ab.Second))
	return net.Fingerprint(), net.Segment(s1).Down(), ab.FaultGrandTotals().Drops
}

// TestSDKFaultPlanDeterministicChaos pins the public fault-plane
// contract: a seeded plan injects faults (frames drop, the scheduled cut
// fires), identical seeds replay byte-for-byte, and a different seed
// reshuffles the chaos.
func TestSDKFaultPlanDeterministicChaos(t *testing.T) {
	fpA, down, drops := lossyLineFingerprint(t, 7)
	if drops == 0 {
		t.Error("20% loss model injected no drops")
	}
	if !down {
		t.Error("scheduled segment cut never fired")
	}
	fpB, _, _ := lossyLineFingerprint(t, 7)
	if fpA != fpB {
		t.Errorf("same seed, different runs: %s vs %s", fpA, fpB)
	}
	fpC, _, _ := lossyLineFingerprint(t, 8)
	if fpC == fpA {
		t.Error("different seeds produced identical chaos")
	}
}

// TestSDKFaultPlanUnknownTargetFailsBuild: a typo'd event target is a
// build error, not silence at runtime.
func TestSDKFaultPlanUnknownTargetFailsBuild(t *testing.T) {
	g := ab.NewTopology("sdk-fault-typo")
	s0 := g.AddSegment("s0")
	h := g.AddHost("")
	g.Link(h, s0)
	g.FaultPlan(ab.NewFaultPlan(1).At(ab.Second, ab.FaultLinkDown, "nope"))
	if _, err := g.Build(ab.DefaultCostModel()); err == nil {
		t.Fatal("build accepted an event targeting an undeclared segment")
	}
}
