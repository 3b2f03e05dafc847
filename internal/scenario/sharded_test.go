// Sharded-engine identity pins: the entire scenario list must render
// byte-identical output on the sharded conservative engine at any shard
// count. Combined with golden_test.go this is the acceptance gate of the
// sharded engine: a shard count never changes behaviour.
package scenario_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/switchware/activebridge/internal/experiments"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/tracing"
)

// TestMain lets CI run the whole test package — including the golden
// fingerprint pins — under a fixed shard count (AB_SHARDS=4 go test)
// and/or with the causal tracing plane recording every built net
// (AB_TRACE=1 go test). Tracing must never move a golden byte, so the
// pins themselves are the acceptance gate for the traced frame path.
func TestMain(m *testing.M) {
	if v := os.Getenv("AB_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			topo.DefaultShards = n
		}
	}
	if os.Getenv("AB_TRACE") == "1" {
		cfg := tracing.Config{Seed: 1, SampleProb: 1}
		if v := os.Getenv("AB_TRACE_SAMPLE"); v != "" {
			if p, err := strconv.ParseFloat(v, 64); err == nil && p > 0 {
				cfg.SampleProb = p
			}
		}
		tracing.SetDefaultConfig(cfg)
		tracing.Enable()
	}
	os.Exit(m.Run())
}

// TestShardedMatchesSerial reruns the list with the sharded engine at 2
// and 4 shards and requires byte-identical rendered output against the
// serial run. Small paper-scale scenarios fall back to serial inside
// Build (Partition refuses them) — their presence keeps the fallback
// path covered; the scale scenarios genuinely cross shards.
func TestShardedMatchesSerial(t *testing.T) {
	if topo.DefaultShards != 1 {
		t.Skip("AB_SHARDS active: the golden test already pins the sharded run")
	}
	counts := []int{2, 4}
	if testing.Short() {
		counts = []int{4}
	}
	for _, shards := range counts {
		requireMatchesSerial(t, fmt.Sprintf("shards=%d", shards), func() []scenario.Result {
			defer func() { topo.DefaultShards = 1 }()
			topo.DefaultShards = shards
			return scenario.RunAll(experiments.Scenarios(), netsim.DefaultCostModel(), 1)
		})
	}
}
