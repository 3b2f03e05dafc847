package activebridge_test

import (
	"fmt"

	"github.com/switchware/activebridge/pkg/activebridge"
)

// Example builds the paper's Figure 7 network (two LANs joined by an
// Active Bridge) from scratch, installs the learning switchlet through a
// versioned, capability-scoped manifest, and exercises the data path.
func Example() {
	sim := activebridge.NewSim()
	cost := activebridge.DefaultCostModel()

	// One bridge between two LANs, with a station on each.
	br := activebridge.NewBridge(sim, "br0", 1, 2, cost)
	lan1 := activebridge.NewSegment(sim, "lan1")
	lan2 := activebridge.NewSegment(sim, "lan2")
	h1 := activebridge.NewNIC(sim, "h1", activebridge.MAC{2, 0, 0, 0, 0, 1})
	h2 := activebridge.NewNIC(sim, "h2", activebridge.MAC{2, 0, 0, 0, 0, 2})
	received := 0
	h2.SetRecv(func(*activebridge.NIC, []byte) { received++ })
	lan1.Attach(h1)
	lan1.Attach(br.Port(0))
	lan2.Attach(h2)
	lan2.Attach(br.Port(1))

	send := func(from, to *activebridge.NIC) {
		fr := activebridge.Frame{Dst: to.MAC, Src: from.MAC, Type: activebridge.TypeTest,
			Payload: make([]byte, 64)}
		raw, err := fr.Marshal()
		if err != nil {
			panic(err)
		}
		sim.Schedule(sim.Now()+1, func() { from.Send(raw) })
		sim.Run(sim.Now() + activebridge.Time(50*activebridge.Millisecond))
	}

	// A bare bridge forwards nothing: behaviour is code.
	send(h1, h2)
	fmt.Printf("before install: h2 received %d\n", received)

	// Install the self-learning switchlet from its manifest. The manifest
	// declares the capabilities the code may use; install-time linking
	// rejects anything beyond the grant.
	sw := activebridge.LearningSwitchlet()
	mgr := br.Manager()
	if _, err := mgr.Install(sw); err != nil {
		panic(err)
	}
	fmt.Printf("installed %s\n", sw.Ref())

	send(h2, h1) // teach the bridge where h2 lives
	send(h1, h2)
	fmt.Printf("after install: h2 received %d\n", received)

	// The switchlet's exported handlers answer through the Manager.
	size, err := mgr.Query("learning.size", "")
	if err != nil {
		panic(err)
	}
	fmt.Printf("stations learned: %s\n", size)

	// Output:
	// before install: h2 received 0
	// installed Learning@1.0.0
	// after install: h2 received 1
	// stations learned: 2
}

// ExampleNewFaultPlan attaches the fault plan from the README to a small
// net: h1 on lan1, bridge b1, a trunk, bridge b3, h2 on lan2. Every LAN
// is lossy, the trunk drops in bursts and is cut from 50 s to 90 s, b3's
// port onto lan2 loses carrier at 20 s, and b1 crashes at 30 s and cold
// boots at 35 s. The same seed always prints the same counters.
func ExampleNewFaultPlan() {
	g := activebridge.NewTopology("fault-example")
	lan1 := g.AddSegment("lan1")
	trunk := g.AddSegment("trunk")
	lan2 := g.AddSegment("lan2")
	b1 := g.AddBridge("b1", activebridge.LearningBridge, 2)
	b3 := g.AddBridge("b3", activebridge.LearningBridge, 2)
	g.Link(b1, lan1)
	g.Link(b1, trunk)
	g.Link(b3, trunk)
	g.Link(b3, lan2) // b3 port 1
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	g.Link(h1, lan1)
	g.Link(h2, lan2)

	lossy := activebridge.FaultModel{Drop: 0.05, Corrupt: 0.01}
	bursty := activebridge.FaultModel{Drop: 0.001, GoodToBad: 0.01, BadToGood: 0.2, BadDrop: 0.5}
	g.FaultPlan(activebridge.NewFaultPlan(0xC4A05).
		AllSegments(lossy).                                              // loss on every LAN
		Segment("trunk", bursty).                                        // bursty trunk
		At(50*activebridge.Second, activebridge.FaultLinkDown, "trunk"). // partition…
		At(90*activebridge.Second, activebridge.FaultLinkUp, "trunk").   // …and heal
		AtPort(20*activebridge.Second, activebridge.FaultPortDown, "b3", 1).
		At(30*activebridge.Second, activebridge.FaultCrash, "b1").   // power cut
		At(35*activebridge.Second, activebridge.FaultRestart, "b1")) // cold boot
	net, err := g.Build(activebridge.DefaultCostModel())
	if err != nil {
		panic(err)
	}

	// h1 streams a frame to h2 every 100 ms for 100 s.
	src, dst := net.Host(h1), net.Host(h2)
	for i := 1; i <= 1000; i++ {
		net.Sim.Schedule(activebridge.Time(i)*activebridge.Time(100*activebridge.Millisecond), func() {
			_ = src.SendTest(dst.MAC, make([]byte, 200))
		})
	}
	net.Sim.Run(activebridge.Time(101 * activebridge.Second))

	for _, id := range []activebridge.SegmentID{lan1, trunk, lan2} {
		s := net.Segment(id)
		fmt.Printf("%s: %d frames, %d dropped, %d corrupt, down=%v\n",
			s.Name, s.Frames, s.FaultDrops, s.FaultCorrupts, s.Down())
	}
	st := net.Bridge(b1).Stats
	fmt.Printf("b1: %d crash, %d restart\n", st.Crashes, st.Restarts)
	fmt.Printf("b3 port 1 down: %v\n", net.Bridge(b3).Port(1).LinkDown())
	fmt.Printf("h2 received %d of 1000\n", dst.FramesIn)

	// Output:
	// lan1: 1000 frames, 63 dropped, 14 corrupt, down=false
	// trunk: 879 frames, 393 dropped, 0 corrupt, down=false
	// lan2: 177 frames, 10 dropped, 2 corrupt, down=false
	// b1: 1 crash, 1 restart
	// b3 port 1 down: true
	// h2 received 165 of 1000
}
