package experiments

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// NetworkLoad reproduces §5.2: a host delivers a compiled switchlet to a
// running bridge through the four-layer loading stack (Ethernet -> minimal
// IP -> minimal UDP -> write-only TFTP); the bridge loads it on receipt.
// It reports the object size, transfer time, and the load taking effect
// (frames forwarded only after the switchlet arrives).
func NetworkLoad(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "§5.2 network switchlet loading (TFTP over minimal UDP/IP)",
		Header: []string{"metric", "value"},
	}
	g := topo.New("netload")
	bID := g.AddBridge("br0", topo.EmptyBridge, 2,
		topo.WithNetLoader(ipv4.Addr{10, 0, 0, 100}))
	lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
	h1ID := g.AddHost("h1") // auto 10.0.0.1
	h2ID := g.AddHost("h2") // auto 10.0.0.2
	g.Link(h1ID, lan1)
	g.Link(bID, lan1)
	g.Link(h2ID, lan2)
	g.Link(bID, lan2)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim, b := net.Sim, net.Bridge(bID)
	h1, h2 := net.Host(h1ID), net.Host(h2ID)

	// Compile the learning switchlet against the bridge's environment,
	// with its manifest's capability grant enforced.
	enc, err := b.Manager().Compile(switchlets.LearningManifest())
	if err != nil {
		return nil, err
	}

	// Before the upload, the bridge forwards nothing.
	sim.Schedule(0, func() { _ = h1.SendTest(h2.MAC, make([]byte, 64)) })
	sim.Run(netsim.Time(200 * netsim.Millisecond))
	dropsBefore := b.Stats.NoHandlerDrops

	up := workload.NewUploader(h1, b.NetLoaderAddr(), "learning.swo", enc)
	sim.Schedule(sim.Now()+1, func() { up.Start() })
	sim.Run(sim.Now() + netsim.Time(10*netsim.Second))
	t.Expect(up.Done(), "upload incomplete (err=%v)", up.Err())
	if !up.Done() {
		t.AddNote("WARNING: upload incomplete (err=%v)", up.Err())
		return t, nil
	}

	// After the upload, traffic flows.
	got := h2.FramesIn
	sim.Schedule(sim.Now()+1, func() { _ = h1.SendTest(h2.MAC, make([]byte, 64)) })
	sim.Run(sim.Now() + netsim.Time(200*netsim.Millisecond))
	forwardedAfter := h2.FramesIn > got
	t.Expect(forwardedAfter, "bridge does not forward after the network load")
	t.Expect(b.NetLoads() == 1, "expected exactly 1 network load, got %d", b.NetLoads())

	t.AddRow("switchlet object size", fmt.Sprintf("%d bytes", len(enc)))
	t.AddRow("TFTP blocks", fmt.Sprintf("%d", len(enc)/512+1))
	t.AddRow("transfer+load time", fmt.Sprintf("%.1f ms", float64(up.Elapsed())/1e6))
	t.AddRow("bridge drops before load", fmt.Sprintf("%d", dropsBefore))
	t.AddRow("forwards after load", fmt.Sprintf("%v", forwardedAfter))
	t.AddRow("switchlets loaded via network", fmt.Sprintf("%d", b.NetLoads()))
	t.AddNote("paper §5.2: the server 'only services write requests in binary format. Any such file is taken to be a Caml byte code file' and is loaded on receipt")
	return t, nil
}
