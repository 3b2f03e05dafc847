// Sharded-engine identity pins: the entire scenario registry must render
// byte-identical output on the sharded conservative engine at any shard
// count. Combined with golden_test.go this is the acceptance gate of the
// sharded engine: a shard count never changes behaviour.
package scenario_test

import (
	"os"
	"strconv"
	"testing"

	"github.com/switchware/activebridge/internal/fault"
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

// TestShardedMatchesSerial reruns the registry with the sharded engine at
// 2 and 4 shards and requires byte-identical rendered output against the
// serial run. Small paper-scale scenarios fall back to serial inside
// Build (Partition refuses them) — their presence keeps the fallback
// path covered; the scale scenarios genuinely cross shards.
func TestShardedMatchesSerial(t *testing.T) {
	if topo.DefaultShards != 1 {
		t.Skip("AB_SHARDS active: the golden test already pins the sharded run")
	}
	serial := runSerial()
	counts := []int{2, 4}
	if testing.Short() {
		counts = []int{4}
	}
	for _, shards := range counts {
		topo.DefaultShards = shards
		results := scenario.RunAll(scenario.All(), netsim.DefaultCostModel(), 1)
		topo.DefaultShards = 1
		if len(results) != len(serial) {
			t.Fatalf("shards=%d: result counts differ: %d vs %d", shards, len(results), len(serial))
		}
		for i := range serial {
			s, p := &serial[i], &results[i]
			if !p.OK() {
				t.Errorf("%s (shards=%d): run=%v check=%v", p.Name, shards, p.Err, p.CheckErr)
				continue
			}
			if s.Fingerprint != p.Fingerprint {
				t.Errorf("%s: shards=%d fingerprint %s != serial %s", s.Name, shards, p.Fingerprint, s.Fingerprint)
			}
			if s.Table.String() != p.Table.String() {
				t.Errorf("%s: shards=%d table bytes differ from serial", s.Name, shards)
			}
		}
	}
}

// TestBlanketFaultProfileShardInvariant replays one scenario under the
// seeded blanket chaos profile (what abbench -faults 42 applies) on the
// serial engine and at 4 shards: the per-segment fault streams derive
// from the profile seed and the net's name, never from the engine, so
// the fingerprint and the injected-fault totals must be equal. The
// scenario's own check may legitimately fail under chaos; only identity
// is asserted.
func TestBlanketFaultProfileShardInvariant(t *testing.T) {
	runSerial() // ensure the registry is populated
	s, ok := scenario.Lookup("scale-chain16")
	if !ok {
		t.Fatal("scale-chain16 not registered")
	}
	prevShards := topo.DefaultShards
	topo.DefaultFaultProfile = &fault.Profile{Seed: 42, Model: fault.DefaultChaosModel()}
	defer func() {
		topo.DefaultShards = prevShards
		topo.DefaultFaultProfile = nil
	}()
	run := func(shards int) (string, fault.Totals) {
		t.Helper()
		topo.DefaultShards = shards
		fault.ResetTotals()
		r := scenario.RunAll([]*scenario.Scenario{s}, netsim.DefaultCostModel(), 1)[0]
		if r.Err != nil {
			t.Fatalf("shards=%d: %v", shards, r.Err)
		}
		return r.Fingerprint, fault.GrandTotals()
	}
	fp1, tot1 := run(1)
	fp4, tot4 := run(4)
	if tot1.Drops == 0 {
		t.Fatalf("the blanket profile injected nothing: %+v", tot1)
	}
	if fp1 == goldenFingerprints["scale-chain16"] {
		t.Error("fingerprint under chaos equals the clean golden: the profile did not reach the net")
	}
	if fp4 != fp1 {
		t.Errorf("fingerprint under -faults 42: 4 shards %s != serial %s", fp4, fp1)
	}
	if tot4 != tot1 {
		t.Errorf("injected totals differ: 4 shards %+v, serial %+v", tot4, tot1)
	}
}
