package experiments

import (
	"fmt"
	"math"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/testbed"
	"github.com/switchware/activebridge/internal/topo"
)

// AblationNativeVsBytecode quantifies the paper's §7.3/§9 conjecture that
// "compiling switchlets into native code for faster operation" recovers
// most of the repeater/bridge gap.
func AblationNativeVsBytecode(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: bytecode interpretation vs native-code switchlets",
		Header: []string{"path", "ttcp Mb/s (8KB)", "ping RTT ms (64B)"},
	}
	var mbps [3]float64
	for i, p := range []testbed.Path{testbed.Repeater, testbed.NativeBridge, testbed.ActiveBridge} {
		tb := testbed.New(p, cost)
		tb.Warm()
		mbps[i] = tb.TtcpRun(8192, 2<<20).ThroughputMbps()
		tb2 := testbed.New(p, cost)
		tb2.Warm()
		rtt := tb2.PingRTT(64, 10)
		t.AddRow(p.String(), report.Mbps(mbps[i]), report.Ms(rtt))
	}
	repeater, native, bytecode := mbps[0], mbps[1], mbps[2]
	t.Expect(native > bytecode, "native %.1f Mb/s must beat bytecode %.1f", native, bytecode)
	t.Expect(repeater-native <= 0.15*repeater, "native %.1f Mb/s should recover most of the gap to the repeater's %.1f", native, repeater)
	t.AddNote("the native bridge recovers most of the repeater/bytecode gap: interpretation dominates, as §7.3 concludes")
	return t, nil
}

// AblationLearning measures what the learning switchlet buys over the dumb
// repeater switchlet: the flood factor onto an uninvolved third LAN during
// a two-party conversation.
func AblationLearning(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: dumb vs learning switchlet (frames leaked onto an uninvolved LAN)",
		Header: []string{"switchlet", "frames on third LAN", "of total sent"},
	}
	run := func(kind topo.BridgeKind, name string) (uint64, error) {
		g := topo.New("ablation-learning")
		bID := g.AddBridge("br0", kind, 3)
		segs := make([]topo.SegmentID, 3)
		taps := make([]topo.TapID, 3)
		for i := range segs {
			segs[i] = g.AddSegment(fmt.Sprintf("lan%d", i+1))
			taps[i] = g.AddTap(fmt.Sprintf("h%d", i+1),
				ethernet.MAC{2, 0, 0, 0, 0, byte(i + 1)})
			g.Link(taps[i], segs[i])
			g.Link(bID, segs[i])
		}
		net, err := g.Build(cost)
		if err != nil {
			return 0, err
		}
		sim := net.Sim
		hosts := make([]*netsim.NIC, 3)
		for i := range taps {
			hosts[i] = net.Tap(taps[i])
			hosts[i].SetRecv(func(*netsim.NIC, []byte) {})
		}
		send := func(from, to int) {
			fr := ethernet.Frame{
				Dst: hosts[to].MAC, Src: hosts[from].MAC,
				Type: ethernet.TypeTest, Payload: make([]byte, 200),
			}
			raw, err := fr.Marshal()
			if err == nil {
				hosts[from].Send(raw)
			}
		}
		const exchanges = 20
		for i := 0; i < exchanges; i++ {
			i := i
			sim.Schedule(netsim.Time(i)*netsim.Time(10*netsim.Millisecond), func() {
				if i%2 == 0 {
					send(0, 1)
				} else {
					send(1, 0)
				}
			})
		}
		sim.Run(netsim.Time(5 * netsim.Second))
		leaked := net.Segment(segs[2]).Frames
		t.AddRow(name,
			fmt.Sprintf("%d", leaked),
			fmt.Sprintf("%.0f%%", 100*float64(leaked)/float64(exchanges)))
		return leaked, nil
	}
	dumb, err := run(topo.DumbBridge, "dumb (repeater)")
	if err != nil {
		return nil, err
	}
	learning, err := run(topo.LearningBridge, "learning")
	if err != nil {
		return nil, err
	}
	t.Expect(learning < dumb, "learning leaked %d frames against dumb's %d; expected containment", learning, dumb)
	t.AddNote("the learning bridge leaks only the initial flood; the dumb bridge repeats every frame everywhere (paper §4)")
	return t, nil
}

// AblationKernelCost sweeps the kernel-crossing cost, the paper's §7.3/§9
// "shortening the Linux path between interrupt arrival and switchlet
// operation" optimization (and the motivation for citing U-Net).
func AblationKernelCost(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: kernel-crossing cost (the U-Net/§9 optimization axis)",
		Header: []string{"kernel cost/frame", "active-bridge Mb/s", "repeater Mb/s"},
	}
	prevActive, prevRepeater := math.Inf(1), math.Inf(1)
	for _, k := range []netsim.Duration{25 * netsim.Microsecond, 50 * netsim.Microsecond,
		100 * netsim.Microsecond, 200 * netsim.Microsecond} {
		c := cost
		c.KernelPerFrame = k
		tbA := testbed.New(testbed.ActiveBridge, c)
		tbA.Warm()
		active := tbA.TtcpRun(8192, 2<<20).ThroughputMbps()
		tbR := testbed.New(testbed.Repeater, c)
		tbR.Warm()
		repeater := tbR.TtcpRun(8192, 2<<20).ThroughputMbps()
		t.Expect(active <= prevActive, "kernel cost %v: active throughput %.1f rose from %.1f", k, active, prevActive)
		t.Expect(repeater <= prevRepeater, "kernel cost %v: repeater throughput %.1f rose from %.1f", k, repeater, prevRepeater)
		prevActive, prevRepeater = active, repeater
		t.AddRow(fmt.Sprintf("%v", k), report.Mbps(active), report.Mbps(repeater))
	}
	t.AddNote("cutting the kernel path helps the repeater far more than the bridge: the bridge stays interpretation-limited")
	return t, nil
}

// AblationGCPressure sweeps the collector cost factor, the paper's §7.3
// "interference from the garbage collector" hypothesis.
func AblationGCPressure(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: GC pressure (VMPerAllocByte) on bridge throughput",
		Header: []string{"alloc cost (ns/B)", "active-bridge Mb/s"},
	}
	for _, a := range []netsim.Duration{0, 25 * netsim.Nanosecond, 100 * netsim.Nanosecond, 400 * netsim.Nanosecond} {
		c := cost
		c.VMPerAllocByte = a
		tb := testbed.New(testbed.ActiveBridge, c)
		tb.Warm()
		tr := tb.TtcpRun(8192, 2<<20)
		t.AddRow(fmt.Sprintf("%d", int64(a)), report.Mbps(tr.ThroughputMbps()))
	}
	t.AddNote("paper §7.3 lists the collector among the likely Caml overheads; concurrent collection is the proposed remedy")
	return t, nil
}
