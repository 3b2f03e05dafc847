package experiments

import (
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/scenario"
)

// agilityRing drops AgilityRing's typed result (examples/ringagility
// reads it) to fit scenario.RunFunc.
func agilityRing(cost netsim.CostModel) (*report.Table, error) {
	t, _, err := AgilityRing(cost)
	return t, err
}

// Scenarios lists every scenario in the order abbench prints them: the
// paper's figures and tables in the paper's order, then the scale, mega
// and chaos families. Slow marks the parameter sweeps abbench -short
// skips. Each call returns a fresh list, so no caller shares its entries.
func Scenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		{Name: "table1-transition", Desc: "Table 1: automatic DEC→IEEE protocol transition on a 2-bridge line", Run: Table1Transition},
		{Name: "table1-fallback", Desc: "Table 1 failure row: buggy IEEE switchlet triggers automatic fallback to DEC", Run: Table1Fallback},
		{Name: "fig9-ping-latency", Desc: "Figure 9: ping RTT vs packet size across the four measured paths", Run: Fig9PingLatency},
		{Name: "fig10-ttcp-throughput", Desc: "Figure 10: ttcp throughput vs write size across the four measured paths", Run: Fig10TtcpThroughput},
		{Name: "frame-rates", Desc: "§7.3: delivered frame rate through the active bridge per frame size", Run: FrameRates},
		{Name: "fig5-decomposition", Desc: "Figure 5 / §7.2: per-stage cost decomposition of one forwarded frame", Run: LatencyDecomposition},
		{Name: "agility-ring", Desc: "§7.5 function agility: 3-bridge chain switches DEC→IEEE live", Run: agilityRing},
		{Name: "netload-tftp", Desc: "§5.2 network switchlet loading over Ethernet/IP/UDP/TFTP", Run: NetworkLoad},
		{Name: "deployment-incremental", Desc: "§5.2 incremental deployment: frontier grows one hop per switchlet upload", Run: IncrementalDeployment},
		{Name: "scalability", Desc: "§7.4 aggregate throughput vs attached LAN pairs through one bridge", Run: Scalability, Slow: true},
		{Name: "ablation-native-vs-bytecode", Desc: "Ablation: native-code switchlets vs bytecode interpretation", Run: AblationNativeVsBytecode, Slow: true},
		{Name: "ablation-learning", Desc: "Ablation: dumb vs learning switchlet flood containment", Run: AblationLearning, Slow: true},
		{Name: "ablation-kernel-cost", Desc: "Ablation: kernel-crossing cost sweep (the U-Net optimization axis)", Run: AblationKernelCost, Slow: true},
		{Name: "ablation-gc-pressure", Desc: "Ablation: GC pressure sweep on bridge throughput", Run: AblationGCPressure, Slow: true},

		{Name: "scale-chain16", Desc: "16-bridge linear chain: latency adds per hop, throughput pipelines", Run: Chain16},
		{Name: "scale-stp-ring", Desc: "6-bridge ring: 802.1D blocks the redundant link, traffic survives", Run: STPRing},
		{Name: "scale-tree64", Desc: "3-level tree, 64 hosts: cross-tree reachability with subtree isolation", Run: Tree64},
		{Name: "scale-mixed-fabric", Desc: "heterogeneous 5-hop path: repeaters + bytecode + native bridges", Run: MixedFabric},
		{Name: "scale-hotswap", Desc: "dumb→learning switchlet swap under a live ttcp stream (§5.2 loader)", Run: HotSwap},
		{Name: "scale-broadcast-storm", Desc: "control for stp-ring: the same loop with no spanning tree melts down", Run: BroadcastStorm},

		{Name: "scale-fattree256", Desc: "256-bridge fat-tree, 960 hosts: mixed ttcp/tftp/ping plus live deployment", Run: FatTree256, Slow: true},
		{Name: "scale-ring8-upgrade", Desc: "rolling DEC→IEEE Manager upgrade across an 8-bridge STP ring under load", Run: Ring8RollingUpgrade},
		{Name: "scale-storm-containment", Desc: "broadcast storm raging inside one pod while far pods keep working", Run: StormContainment},

		{Name: "chaos-lossy-deployment", Desc: "incremental switchlet deployment over seeded 5%-loss segments (TFTP retransmission)", Run: ChaosLossyDeployment},
		{Name: "chaos-flapping-ring", Desc: "8-bridge STP ring: transit link flap under ttcp, reconvergence within the 802.1D bound", Run: ChaosFlappingRing, Slow: true},
		{Name: "chaos-crash-upgrade", Desc: "bridge crash mid-validation: upgrade rolls back, restart restores the old protocol", Run: ChaosCrashUpgrade},
		{Name: "chaos-partition-heal", Desc: "6-bridge STP ring: plan-scheduled partition and heal, no storm, invariants hold", Run: ChaosPartitionHeal},
	}
}
