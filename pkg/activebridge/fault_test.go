package activebridge_test

import (
	"strings"
	"testing"

	ab "github.com/switchware/activebridge/pkg/activebridge"
)

// lossyLineFingerprint declares h1 - s0 - bridge - s1 - h2 with a
// seeded all-segments impairment model and one scheduled cut of s1,
// through the public SDK surface only. It returns the fingerprint after
// a fixed drive and the frames the model dropped on s0, which is never
// cut (a cut segment counts its dead frames as drops too).
func lossyLineFingerprint(t *testing.T, seed uint64) (fp string, s1Down bool, drops uint64) {
	t.Helper()
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
	return net.Fingerprint(), net.Segment(s1).Down(), net.Segment(s0).FaultDrops
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

// TestSDKFaultPlanUnknownTargetFailsBuild: a typo'd name anywhere in a
// plan, an event target or a segment model, is a build error naming the
// plan entry, not silence at runtime.
func TestSDKFaultPlanUnknownTargetFailsBuild(t *testing.T) {
	cases := []struct {
		name string
		plan *ab.FaultPlan
		want string
	}{
		{"event target", ab.NewFaultPlan(1).At(ab.Second, ab.FaultLinkDown, "nope"), "1s link-down nope"},
		{"segment model", ab.NewFaultPlan(1).
			Segment("s0", ab.FaultModel{Drop: 0.1}).
			Segment("nope", ab.FaultModel{Drop: 0.1}), `Segment("nope")`},
	}
	for _, c := range cases {
		g := ab.NewTopology("sdk-fault-typo")
		s0 := g.AddSegment("s0")
		h := g.AddHost("")
		g.Link(h, s0)
		g.FaultPlan(c.plan)
		_, err := g.Build(ab.DefaultCostModel())
		if err == nil {
			t.Errorf("%s: build accepted a plan naming an undeclared segment", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the plan entry %s", c.name, err, c.want)
		}
	}
}
