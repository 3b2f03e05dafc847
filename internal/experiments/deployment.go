package experiments

import (
	"fmt"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// IncrementalDeployment reproduces §5.2's bootstrap narrative: "we can
// easily build up an infrastructure in steps by sending the bridge
// switchlet to all adjacent switches and then waiting for these switches
// to start bridging. As the diameter of the extended LAN grows by one at
// each subsequent step, we can load those switches whose shortest path is
// one link greater than was possible in the previous step."
//
// A chain of empty bridges separates the administrator's host from the far
// LANs. Initially only bridge 1's loader is reachable; each upload extends
// the forwarding frontier by one hop, unlocking the next bridge.
func IncrementalDeployment(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "§5.2 incremental switchlet deployment (frontier grows one hop per step)",
		Header: []string{"step", "target", "upload", "reachable frontier (hosts answering ping)"},
	}
	const n = 3

	// Topology: admin -- s0 -- b1 -- s1 -- b2 -- s2 -- b3 -- s3
	// with a probe host on every segment.
	g := topo.New("incremental-deployment")
	segs, bIDs := topo.Chain(n).Declare(g, "s", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.EmptyBridge, 2,
			topo.WithBridgeID(byte(i+1)),
			topo.WithNetLoader(ipv4.Addr{10, 0, 0, byte(100 + i)}))
	})
	adminID := g.AddHost("admin",
		topo.WithMAC(ethernet.MAC{2, 0, 0, 0, 0xaa, 0}),
		topo.WithIP(ipv4.Addr{10, 0, 0, 1}))
	g.Link(adminID, segs[0])
	probeIDs := make([]topo.HostID, n+1)
	for i := 0; i <= n; i++ {
		probeIDs[i] = g.AddHost(fmt.Sprintf("p%d", i),
			topo.WithMAC(ethernet.MAC{2, 0, 0, 0, 0xbb, byte(i)}),
			topo.WithIP(ipv4.Addr{10, 0, 1, byte(i + 1)}))
		g.Link(probeIDs[i], segs[i])
	}
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	sim, admin := net.Sim, net.Host(adminID)
	bridges := make([]*bridge.Bridge, n)
	for i := range bIDs {
		bridges[i] = net.Bridge(bIDs[i])
	}

	// reachable counts probe hosts that answer a ping from the admin.
	reachable := func() int {
		count := 0
		for _, pid := range probeIDs {
			pinger := workload.NewPinger(admin, net.Host(pid).IP, 32, 1)
			pinger.Run(sim.Now() + netsim.Time(2*netsim.Second))
			if pinger.Completed() == 1 {
				count++
			}
		}
		return count
	}

	// Compile the learning switchlet once per target (against that node's
	// environment — identical here, but the discipline matters).
	upload := func(b *bridge.Bridge) error {
		enc, err := b.Manager().Compile(switchlets.LearningManifest())
		if err != nil {
			return err
		}
		up := workload.NewUploader(admin, b.NetLoaderAddr(), "learning.swo", enc)
		sim.Schedule(sim.Now()+1, up.Start)
		sim.Run(sim.Now() + netsim.Time(30*netsim.Second))
		if !up.Done() {
			return fmt.Errorf("upload to %s incomplete: %v", b.Name, up.Err())
		}
		return nil
	}

	frontier := reachable()
	t.Expect(frontier == 1, "before any upload %d probes answer, want the admin's own LAN only", frontier)
	t.AddRow("0", "-", "-", fmt.Sprintf("%d (own LAN only)", frontier))
	for i, b := range bridges {
		status := "ok"
		if err := upload(b); err != nil {
			status = err.Error()
		}
		frontier = reachable()
		t.Expect(status == "ok", "step %d: %s", i+1, status)
		t.Expect(frontier == i+2, "step %d: frontier %d, want %d (one hop per upload)", i+1, frontier, i+2)
		t.AddRow(fmt.Sprintf("%d", i+1), b.Name, status, fmt.Sprintf("%d", frontier))
	}
	t.AddNote("each successful upload extends the extended LAN's diameter by one, unlocking the next switch's loader")
	return t, nil
}
