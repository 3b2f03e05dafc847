package activebridge_test

import (
	"fmt"
	"testing"

	ab "github.com/switchware/activebridge/pkg/activebridge"
)

// buildRing declares a 12-bridge learning ring cut open by one absent
// link (a line, so no spanning tree is needed) with a host on each end,
// through the public SDK surface only.
func buildRing(shards int) (*ab.Net, ab.HostID, ab.HostID) {
	g := ab.NewTopology("sdk-sharded")
	const n = 12
	segs := make([]ab.SegmentID, n+1)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("s%d", i), ab.WithPropagation(2000))
	}
	h1 := g.AddHost("")
	h2 := g.AddHost("")
	for i := 0; i < n; i++ {
		b := g.AddBridge("", ab.LearningBridge, 2)
		g.Link(b, segs[i])
		g.Link(b, segs[i+1])
	}
	g.Link(h1, segs[0])
	g.Link(h2, segs[n])
	g.Affine(h1, h2)
	if shards > 0 {
		g.Shards(shards)
	}
	net := g.MustBuild(ab.DefaultCostModel())
	return net, h1, h2
}

// TestSDKShardedMatchesSerial pins the public-API contract of the
// sharded engine: the Shards option never changes behaviour — the same
// topology driven the same way fingerprints identically.
func TestSDKShardedMatchesSerial(t *testing.T) {
	drive := func(shards int) string {
		net, h1, h2 := buildRing(shards)
		if shards > 1 && net.Shards() != shards {
			t.Fatalf("expected %d shards, got %d", shards, net.Shards())
		}
		net.Warm(h1, h2)
		net.Sim.Run(net.Sim.Now() + 2_000_000_000)
		return net.Fingerprint()
	}
	serial := drive(0)
	for _, shards := range []int{2, 3} {
		if got := drive(shards); got != serial {
			t.Errorf("shards=%d fingerprint deviates:\n got %s\nwant %s", shards, got, serial)
		}
	}
}

// TestSDKPartitionInspection exercises the exported planner.
func TestSDKPartitionInspection(t *testing.T) {
	g := ab.NewTopology("plan")
	segs := make([]ab.SegmentID, 13)
	for i := range segs {
		segs[i] = g.AddSegment("")
	}
	for i := 0; i < 12; i++ {
		b := g.AddBridge("", ab.LearningBridge, 2)
		g.Link(b, segs[i])
		g.Link(b, segs[i+1])
	}
	plan, ok := ab.Partition(g, 3)
	if !ok || plan.Shards != 3 {
		t.Fatalf("expected a 3-shard plan, got %v ok=%v", plan, ok)
	}
	if cuts := plan.Cuts(g); cuts < 2 {
		t.Fatalf("a 3-way chain partition needs >=2 cuts, got %d", cuts)
	}
}
