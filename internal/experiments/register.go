package experiments

import (
	"sync"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/scenario"
)

// agilityRing drops AgilityRing's typed result (examples/ringagility
// reads it) to fit the registry's shape.
func agilityRing(cost netsim.CostModel) (*report.Table, error) {
	t, _, err := AgilityRing(cost)
	return t, err
}

// registry lists every scenario in the order abbench prints them: the
// paper's figures and tables in the paper's order, then the scale, mega
// and chaos families. slow marks the parameter sweeps abbench -short skips.
var registry = []struct {
	name, desc string
	run        scenario.RunFunc
	slow       bool
}{
	{"table1-transition", "Table 1: automatic DEC→IEEE protocol transition on a 2-bridge line", Table1Transition, false},
	{"table1-fallback", "Table 1 failure row: buggy IEEE switchlet triggers automatic fallback to DEC", Table1Fallback, false},
	{"fig9-ping-latency", "Figure 9: ping RTT vs packet size across the four measured paths", Fig9PingLatency, false},
	{"fig10-ttcp-throughput", "Figure 10: ttcp throughput vs write size across the four measured paths", Fig10TtcpThroughput, false},
	{"frame-rates", "§7.3: delivered frame rate through the active bridge per frame size", FrameRates, false},
	{"fig5-decomposition", "Figure 5 / §7.2: per-stage cost decomposition of one forwarded frame", LatencyDecomposition, false},
	{"agility-ring", "§7.5 function agility: 3-bridge chain switches DEC→IEEE live", agilityRing, false},
	{"netload-tftp", "§5.2 network switchlet loading over Ethernet/IP/UDP/TFTP", NetworkLoad, false},
	{"deployment-incremental", "§5.2 incremental deployment: frontier grows one hop per switchlet upload", IncrementalDeployment, false},
	{"scalability", "§7.4 aggregate throughput vs attached LAN pairs through one bridge", Scalability, true},
	{"ablation-native-vs-bytecode", "Ablation: native-code switchlets vs bytecode interpretation", AblationNativeVsBytecode, true},
	{"ablation-learning", "Ablation: dumb vs learning switchlet flood containment", AblationLearning, true},
	{"ablation-kernel-cost", "Ablation: kernel-crossing cost sweep (the U-Net optimization axis)", AblationKernelCost, true},
	{"ablation-gc-pressure", "Ablation: GC pressure sweep on bridge throughput", AblationGCPressure, true},

	{"scale-chain16", "16-bridge linear chain: latency adds per hop, throughput pipelines", Chain16, false},
	{"scale-stp-ring", "6-bridge ring: 802.1D blocks the redundant link, traffic survives", STPRing, false},
	{"scale-tree64", "3-level tree, 64 hosts: cross-tree reachability with subtree isolation", Tree64, false},
	{"scale-mixed-fabric", "heterogeneous 5-hop path: repeaters + bytecode + native bridges", MixedFabric, false},
	{"scale-hotswap", "dumb→learning switchlet swap under a live ttcp stream (§5.2 loader)", HotSwap, false},
	{"scale-broadcast-storm", "control for stp-ring: the same loop with no spanning tree melts down", BroadcastStorm, false},

	{"scale-fattree256", "256-bridge fat-tree, 960 hosts: mixed ttcp/tftp/ping plus live deployment", FatTree256, true},
	{"scale-ring8-upgrade", "rolling DEC→IEEE Manager upgrade across an 8-bridge STP ring under load", Ring8RollingUpgrade, false},
	{"scale-storm-containment", "broadcast storm raging inside one pod while far pods keep working", StormContainment, false},

	{"chaos-lossy-deployment", "incremental switchlet deployment over seeded 5%-loss segments (TFTP retransmission)", ChaosLossyDeployment, false},
	{"chaos-flapping-ring", "8-bridge STP ring: transit link flap under ttcp, reconvergence within the 802.1D bound", ChaosFlappingRing, true},
	{"chaos-crash-upgrade", "bridge crash mid-validation: upgrade rolls back, restart restores the old protocol", ChaosCrashUpgrade, false},
	{"chaos-partition-heal", "6-bridge STP ring: plan-scheduled partition and heal, no storm, invariants hold", ChaosPartitionHeal, false},
}

var registerOnce sync.Once

// RegisterAll registers every scenario with the scenario registry. It is
// safe to call from multiple packages; only the first call registers.
func RegisterAll() {
	registerOnce.Do(func() {
		for _, s := range registry {
			scenario.Register(s.name, s.desc, s.run).Slow = s.slow
		}
	})
}
