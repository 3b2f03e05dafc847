package topo_test

import (
	"runtime"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
)

// buildAllocBytes reports the bytes the serial Build of a pods-pod fat
// tree allocates (runtime.MemStats.TotalAlloc, which counts freed bytes
// too).
func buildAllocBytes(t *testing.T, pods int) uint64 {
	t.Helper()
	g := fatTreeGraph(pods)
	g.Shards(1)
	cost := netsim.DefaultCostModel()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := g.Build(cost)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildLinearInHosts pins Build's cost as linear in hosts: one
// shared neighbor directory, not a host x host table copied into every
// host. Going from 4 to 15 pods multiplies hosts (256 -> 960) and
// bridges (69 -> 256) by 3.75; a quadratic term shows as a ratio near
// 11, a linear build stays near 3.4.
func TestBuildLinearInHosts(t *testing.T) {
	small, large := buildAllocBytes(t, 4), buildAllocBytes(t, 15)
	t.Logf("Build allocated %.2f MB at 256 hosts, %.2f MB at 960", float64(small)/1e6, float64(large)/1e6)
	if ratio := float64(large) / float64(small); ratio > 5 {
		t.Errorf("Build allocated %.1f MB at 960 hosts, %.1f MB at 256: %.2fx, want <= 5x",
			float64(large)/1e6, float64(small)/1e6, ratio)
	}
	if large > 10e6 {
		t.Errorf("Build allocated %.1f MB at 960 hosts, want <= 10 MB", float64(large)/1e6)
	}
}

// BenchmarkBuildFatTree builds the 960-host, 256-bridge fat tree serially.
func BenchmarkBuildFatTree(b *testing.B) {
	g := fatTreeGraph(15)
	g.Shards(1)
	cost := netsim.DefaultCostModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Build(cost); err != nil {
			b.Fatal(err)
		}
	}
}
