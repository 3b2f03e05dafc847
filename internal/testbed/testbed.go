// Package testbed wires the paper's measurement configurations:
//
//	Figure 8 (baseline): Host#1 -- 100 Mb/s LAN -- Host#2
//	Figure 7 (bridged):  Host#1 -- LAN#1 -- node -- LAN#2 -- Host#2
//
// where node is the active bridge (swl switchlets), the active bridge with
// native-code switchlets (ablation), or the C buffered repeater.
//
// It is a thin wrapper over the declarative topology layer
// (internal/topo): the four Paths are just four small graphs. Arbitrary
// multi-bridge extended LANs are declared directly with topo. Switchlet
// installation flows through each bridge's lifecycle Manager (manifests
// resolved from the declared BridgeKind), so a testbed bridge exposes
// the same Install/Query/Upgrade surface as any SDK-embedded node —
// Manager() is the shortcut to it.
package testbed

import (
	"fmt"

	"github.com/switchware/activebridge/internal/baseline"
	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// Path selects the forwarding element between the two hosts.
type Path int

// The measured configurations.
const (
	Direct Path = iota // single shared LAN, no intermediary
	Repeater
	ActiveBridge // swl learning switchlet (the paper's measured system)
	NativeBridge // native-code learning switchlet (ablation)
)

var pathNames = [...]string{"direct", "repeater", "active-bridge", "native-bridge"}

// Paths lists every measured configuration in presentation order.
var Paths = []Path{Direct, Repeater, ActiveBridge, NativeBridge}

// Valid reports whether p names a measured configuration.
func (p Path) Valid() bool { return p >= 0 && int(p) < len(pathNames) }

func (p Path) String() string {
	if !p.Valid() {
		return fmt.Sprintf("path(%d)", int(p))
	}
	return pathNames[p]
}

// Testbed is a wired two-host measurement network.
type Testbed struct {
	// Net is the materialized topology; Sim aliases Net.Sim.
	Net    *topo.Net
	Sim    *netsim.Sim
	Cost   netsim.CostModel
	H1, H2 *workload.Host

	// Bridge is set for ActiveBridge/NativeBridge paths.
	Bridge *bridge.Bridge
	// Rep is set for the Repeater path.
	Rep *baseline.Repeater

	h1, h2 topo.HostID
}

// H2IP is host 2's address (the topo auto-assignment).
var H2IP = ipv4.Addr{10, 0, 0, 2}

// New builds the configuration. An error can only come from switchlet
// compilation, which is deterministic; it panics because it means the
// shipped sources are broken.
func New(path Path, cost netsim.CostModel) *Testbed {
	g := topo.New("testbed-" + path.String())
	h1 := g.AddHost("h1") // auto: 02:00:00:00:00:01 / 10.0.0.1
	h2 := g.AddHost("h2") // auto: 02:00:00:00:00:02 / 10.0.0.2
	var (
		brID  topo.BridgeID
		repID topo.RepeaterID
	)
	switch path {
	case Direct:
		lan := g.AddSegment("lan")
		g.Link(h1, lan)
		g.Link(h2, lan)
	case Repeater:
		lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
		repID = g.AddRepeater("rep")
		g.Link(h1, lan1)
		g.Link(repID, lan1)
		g.Link(h2, lan2)
		g.Link(repID, lan2)
	case ActiveBridge, NativeBridge:
		kind := topo.LearningBridge
		if path == NativeBridge {
			kind = topo.NativeLearningBridge
		}
		lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
		brID = g.AddBridge("br0", kind, 2)
		g.Link(h1, lan1)
		g.Link(brID, lan1)
		g.Link(h2, lan2)
		g.Link(brID, lan2)
	default:
		panic("testbed: unknown path " + path.String())
	}
	net := g.MustBuild(cost)
	tb := &Testbed{
		Net: net, Sim: net.Sim, Cost: cost,
		H1: net.Host(h1), H2: net.Host(h2),
		h1: h1, h2: h2,
	}
	switch path {
	case Repeater:
		tb.Rep = net.Repeater(repID)
	case ActiveBridge, NativeBridge:
		tb.Bridge = net.Bridge(brID)
	}
	return tb
}

// Warm primes the learning table (and any caches) with one probe in each
// direction so measurements see steady state. It routes through the topo
// warm-up helper, so every scenario warms identically (topo.WarmProbe).
func (tb *Testbed) Warm() { tb.Net.Warm(tb.h1, tb.h2) }

// Manager returns the bridge's switchlet lifecycle manager, for paths
// that have a bridge; it panics on Direct/Repeater configurations, which
// have no programmable node.
func (tb *Testbed) Manager() *bridge.Manager {
	if tb.Bridge == nil {
		panic("testbed: configuration has no bridge")
	}
	return tb.Bridge.Manager()
}

// PingRTT measures the mean ICMP round-trip time for the given data size.
func (tb *Testbed) PingRTT(size, count int) netsim.Duration {
	p := workload.NewPinger(tb.H1, H2IP, size, count)
	p.Run(tb.Sim.Now() + netsim.Time(netsim.Duration(count+5)*netsim.Second))
	return p.MeanRTT()
}

// TtcpRun streams total bytes with the given write size and returns the
// finished transfer.
func (tb *Testbed) TtcpRun(writeSize int, total int64) *workload.Ttcp {
	t := workload.NewTtcp(tb.H1, tb.H2, writeSize, total)
	t.Run(tb.Sim.Now() + netsim.Time(600*netsim.Second))
	return t
}
