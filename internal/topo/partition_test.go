package topo_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// chainGraph declares a Chain16-style net: nBridges learning bridges in a
// line with a host on each end, the closed-loop ttcp pair declared
// affine.
func chainGraph(nBridges, shards int) (*topo.Graph, topo.HostID, topo.HostID) {
	g := topo.New(fmt.Sprintf("chain%d", nBridges))
	segs := make([]topo.SegmentID, nBridges+1)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("s%d", i))
	}
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	for i := 0; i < nBridges; i++ {
		b := g.AddBridge("", topo.LearningBridge, 2)
		g.Link(b, segs[i])
		g.Link(b, segs[i+1])
	}
	g.Link(h1, segs[0])
	g.Link(h2, segs[nBridges])
	g.Affine(h1, h2)
	if shards > 0 {
		g.Shards(shards)
	}
	return g, h1, h2
}

// driveChain warms the path, pings, and streams — the same moves as the
// registered chain scenario — and returns the net fingerprint plus the
// headline workload metrics.
func driveChain(t *testing.T, g *topo.Graph, h1, h2 topo.HostID) (string, float64, netsim.Duration) {
	t.Helper()
	net, err := g.Build(netsim.DefaultCostModel())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	net.Warm(h1, h2)
	p := workload.NewPinger(net.Host(h1), net.Host(h2).IP, 64, 3)
	p.Run(net.Sim.Now() + netsim.Time(30*netsim.Second))
	tr := workload.NewTtcp(net.Host(h1), net.Host(h2), 8192, 256<<10)
	tr.Run(net.Sim.Now() + netsim.Time(120*netsim.Second))
	if !tr.Done() {
		t.Fatalf("transfer incomplete on %s", g.Name)
	}
	return net.Fingerprint(), tr.ThroughputMbps(), p.MeanRTT()
}

// TestShardedChainMatchesSerial is the end-to-end identity check at the
// topology layer: the same declared net, driven by the same workloads,
// must produce a byte-identical fingerprint and identical workload
// metrics at 1, 2 and 4 shards.
func TestShardedChainMatchesSerial(t *testing.T) {
	g0, a0, b0 := chainGraph(16, 0)
	fp0, mbps0, rtt0 := driveChain(t, g0, a0, b0)
	for _, shards := range []int{2, 4} {
		g, a, b := chainGraph(16, shards)
		net, err := g.Build(netsim.DefaultCostModel())
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if net.Shards() != shards {
			t.Fatalf("expected %d shards, got %d", shards, net.Shards())
		}
		g, a, b = chainGraph(16, shards)
		fp, mbps, rtt := driveChain(t, g, a, b)
		if fp != fp0 {
			t.Errorf("shards=%d fingerprint deviates:\n got %s\nwant %s", shards, fp, fp0)
		}
		if mbps != mbps0 || rtt != rtt0 {
			t.Errorf("shards=%d metrics deviate: mbps %v vs %v, rtt %v vs %v", shards, mbps, mbps0, rtt, rtt0)
		}
	}
}

// fatTreeGraph declares the scale-fattree256 shape at 15 pods: one core
// bridge, 15 aggregation bridges, 240 edge bridges, 960 hosts, and the
// scenario's twenty affine ttcp pairs (pod-local and cross-pod). Each pod
// adds one aggregation bridge, 16 edge bridges and 64 hosts.
func fatTreeGraph(pods int) *topo.Graph {
	const edgesPerPod, hostsPerEdge = 16, 4
	g := topo.New("fattree")
	core := g.AddBridge("core", topo.LearningBridge, pods)
	var edgeHosts [][]topo.HostID
	for p := 0; p < pods; p++ {
		trunk := g.AddSegment(fmt.Sprintf("trunk%d", p), topo.WithPropagation(5*netsim.Microsecond))
		agg := g.AddBridge(fmt.Sprintf("agg%d", p), topo.LearningBridge, 1+edgesPerPod)
		g.Link(core, trunk)
		g.Link(agg, trunk)
		for e := 0; e < edgesPerPod; e++ {
			riser := g.AddSegment(fmt.Sprintf("riser%d.%d", p, e), topo.WithPropagation(2*netsim.Microsecond))
			eb := g.AddBridge(fmt.Sprintf("edge%d.%d", p, e), topo.LearningBridge, 2)
			lan := g.AddSegment(fmt.Sprintf("lan%d.%d", p, e))
			g.Link(agg, riser)
			g.Link(eb, riser)
			g.Link(eb, lan)
			var hs []topo.HostID
			for h := 0; h < hostsPerEdge; h++ {
				id := g.AddHost("")
				g.Link(id, lan)
				hs = append(hs, id)
			}
			edgeHosts = append(edgeHosts, hs)
		}
	}
	for p := 0; p < pods; p++ {
		g.Affine(edgeHosts[p*edgesPerPod+2][0], edgeHosts[p*edgesPerPod+9][1])
	}
	for i := 0; i < 4; i++ {
		g.Affine(edgeHosts[((3*i+1)%pods)*edgesPerPod+4][2], edgeHosts[((3*i+8)%pods)*edgesPerPod+11][3])
	}
	g.Affine(edgeHosts[0][0], edgeHosts[5][0])
	return g
}

// checkPartitionContract states what Partition promises, as properties
// of the plan laid out along the partitioner's own depth-first order.
func checkPartitionContract(t *testing.T, g *topo.Graph, shards int) {
	t.Helper()
	plan, ok := topo.Partition(g, shards)
	if !ok || plan.Shards != shards {
		t.Fatalf("%s: want %d shards, got %+v ok=%v", g.Name, shards, plan, ok)
	}
	shard, weight, group := plan.InDFSOrder(g)

	total, maxNode := 0, 0
	shardWeight := make([]int, shards)
	groupWeight := map[int]int{}
	groupShard := map[int]int{}
	last := 0
	for i := range shard {
		total += weight[i]
		shardWeight[shard[i]] += weight[i]
		groupWeight[group[i]] += weight[i]
		if weight[i] > maxNode {
			maxNode = weight[i]
		}
		s, placed := groupShard[group[i]]
		if placed {
			// Affinity groups stay whole.
			if shard[i] != s {
				t.Errorf("%s/%d: affinity group %d split across shards %d and %d", g.Name, shards, group[i], s, shard[i])
			}
			continue
		}
		groupShard[group[i]] = shard[i]
		// Each shard is one contiguous run of the order (a group sits
		// where its first member falls).
		if shard[i] != last && shard[i] != last+1 {
			t.Fatalf("%s/%d: position %d jumps from shard %d to %d", g.Name, shards, i, last, shard[i])
		}
		last = shard[i]
	}
	maxGroup := 0
	for _, w := range groupWeight {
		if w > maxGroup {
			maxGroup = w
		}
	}
	for s, w := range shardWeight {
		if w == 0 {
			t.Errorf("%s/%d: shard %d is empty", g.Name, shards, s)
		}
		if d := w - total/shards; d > maxGroup+maxNode || -d > maxGroup+maxNode {
			t.Errorf("%s/%d: shard %d weighs %d, want %d +/- %d", g.Name, shards, s, w, total/shards, maxGroup+maxNode)
		}
	}
	// A pure function of the declaration.
	if again, _ := topo.Partition(g, shards); !reflect.DeepEqual(plan, again) {
		t.Errorf("%s/%d: the same graph partitioned differently twice", g.Name, shards)
	}
}

// TestPartitionProperties pins the partitioner's contract: every shard
// populated, affinity groups whole, shards contiguous in the depth-first
// order and weight-balanced to within one group plus one node, the same
// plan every time — on the chain and on the 256-bridge fat-tree — and
// tiny graphs refuse to shard.
func TestPartitionProperties(t *testing.T) {
	for _, shards := range []int{2, 4} {
		chain, _, _ := chainGraph(16, 0)
		checkPartitionContract(t, chain, shards)
		checkPartitionContract(t, fatTreeGraph(15), shards)
	}

	g, h1, h2 := chainGraph(16, 0)
	plan, ok := topo.Partition(g, 4)
	if !ok {
		t.Fatal("chain16 should partition at 4 shards")
	}
	if plan.Shards != 4 {
		t.Fatalf("want 4 shards, got %d", plan.Shards)
	}
	if plan.HostShard(h1) != plan.HostShard(h2) {
		t.Fatalf("affine hosts split: %d vs %d", plan.HostShard(h1), plan.HostShard(h2))
	}
	if cuts := plan.Cuts(g); cuts < 3 || cuts > 8 {
		t.Fatalf("implausible cut count for a 4-way chain: %d", cuts)
	}

	// Paper-scale graph: two hosts and one bridge must stay serial.
	small := topo.New("small")
	lan1, lan2 := small.AddSegment(""), small.AddSegment("")
	sh1, sh2 := small.AddHost(""), small.AddHost("")
	sb := small.AddBridge("", topo.LearningBridge, 2)
	small.Link(sh1, lan1)
	small.Link(sb, lan1)
	small.Link(sh2, lan2)
	small.Link(sb, lan2)
	if _, ok := topo.Partition(small, 4); ok {
		t.Fatal("a 3-node net must not shard")
	}
}
