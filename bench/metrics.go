package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may get worse before it
// counts as a regression; Floor is an absolute change below which it never
// does (BENCHMARK.json has no field for it, so only `bench compare`
// applies it).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"-"`
}

// endToEnd is what a user of the simulator sees, per workload. The last
// entry is reported by `bench run` and gated by `bench compare`, but is not
// declared in BENCHMARK.json: it is 0 on every workload, which that file's
// relative bounds cannot express; there it travels as attempted/failed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.005},
	{Name: "host_ns_per_op", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "cpu_ns_per_op", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "mallocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, Floor: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.04, Floor: 16},
	{Name: "sim_ops_per_sim_s", Unit: "1/s", Better: "higher", Bound: 0.001},
	{Name: "op_fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

// declaredEndToEnd is the part of endToEnd that BENCHMARK.json declares.
var declaredEndToEnd = endToEnd[:len(endToEnd)-1]

// perLayer is every per-layer metric, named <module>.<name>. None is
// gated; 0 means the metric does not apply to the workload.
var perLayer = []metricDef{
	{Name: "netsim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "netsim.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "netsim.queue_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netsim.queue_share", Unit: "ratio", Better: "lower"},
	{Name: "netsim.wire_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "netsim.segment_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.nic_rx_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.tx_drops", Unit: "count", Better: "lower"},
	{Name: "netsim.shard_events_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "netsim.shard_cut_segments", Unit: "count", Better: "lower"},
	{Name: "netsim.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "netsim.shard_cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ethernet.codec_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "bridge.frames_in_per_op", Unit: "count", Better: "lower"},
	{Name: "bridge.flow_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bridge.forward_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "bridge.native_forward_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "bridge.self_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "bridge.timer_fires_per_op", Unit: "count", Better: "lower"},
	{Name: "bridge.handler_traps", Unit: "count", Better: "lower"},
	{Name: "bridge.no_handler_drops", Unit: "count", Better: "lower"},
	{Name: "bridge.install_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "bridge.install_cached_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.steps_per_op", Unit: "count", Better: "lower"},
	{Name: "vm.sim_alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "vm.tier_enter_share.O0", Unit: "ratio", Better: "lower"},
	{Name: "vm.tier_enter_share.O1", Unit: "ratio", Better: "lower"},
	{Name: "vm.tier_enter_share.O2", Unit: "ratio", Better: "higher"},
	{Name: "vm.ns_per_frame.O0", Unit: "ns", Better: "lower"},
	{Name: "vm.ns_per_frame.O1", Unit: "ns", Better: "lower"},
	{Name: "vm.ns_per_frame.O2", Unit: "ns", Better: "lower"},
	{Name: "vm.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "vm.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.endpoint_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "workload.frames_sent", Unit: "count", Better: "higher"},
	{Name: "workload.frames_delivered", Unit: "count", Better: "higher"},
	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "topo.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "topo.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "topo.shards_actual", Unit: "count", Better: "higher"},
	{Name: "tracing.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tracing.events_recorded", Unit: "count", Better: "higher"},
	{Name: "tracing.dropped", Unit: "count", Better: "lower"},
	{Name: "tracing.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "tracing.export_bytes", Unit: "B", Better: "lower"},
	{Name: "metrics.series_count", Unit: "count", Better: "higher"},
	{Name: "switchlets.stp_roots_final", Unit: "count", Better: "lower"},
	{Name: "switchlets.stp_blocked_ports_final", Unit: "count", Better: "lower"},
	{Name: "harness.slices", Unit: "count", Better: "higher"},
	{Name: "harness.host_ns_per_op_p50", Unit: "ns", Better: "lower"},
	{Name: "harness.host_ns_per_op_p90", Unit: "ns", Better: "lower"},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "harness.op_fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.reference_host_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "harness.reference_cpu_ns_per_op", Unit: "ns", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json in the working directory or above it.
func loadManifest() (*manifest, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &m, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// agrees checks that BENCHMARK.json declares exactly the workloads this
// program does not leave to be run by hand and the metrics it reports, with
// the same unit, direction and bound.
func (m *manifest) agrees() error {
	var diffs []string
	names := map[string]bool{}
	for _, w := range m.Workloads {
		names[w.Name] = true
		if findWorkload(w.Name) == nil {
			diffs = append(diffs, "workload "+w.Name+" declared but not implemented")
		}
	}
	for _, w := range workloads {
		if names[w.name] == w.byHand {
			diffs = append(diffs, "workload "+w.name+" must be either declared or marked byHand")
		}
	}
	same := func(kind string, declared, reported []metricDef) {
		byName := map[string]metricDef{}
		for _, d := range declared {
			byName[d.Name] = d
		}
		for _, r := range reported {
			d, ok := byName[r.Name]
			delete(byName, r.Name)
			r.Floor = 0
			switch {
			case !ok:
				diffs = append(diffs, kind+" "+r.Name+" reported but not declared")
			case d != r:
				diffs = append(diffs, fmt.Sprintf("%s %s declared as %+v, reported as %+v", kind, r.Name, d, r))
			}
		}
		for name := range byName {
			diffs = append(diffs, kind+" "+name+" declared but not reported")
		}
	}
	same("end-to-end metric", m.EndToEnd, declaredEndToEnd)
	same("per-layer metric", m.PerLayer, perLayer)
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("BENCHMARK.json disagrees with the benchmark: %q", diffs)
	}
	return nil
}

// complete checks that a result carries every declared metric and no
// other.
func (r *result) complete() error {
	same := func(kind string, got map[string]float64, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d %s metrics reported, %d declared", r.Workload, len(got), kind, len(want))
		}
		for _, d := range want {
			if _, ok := got[d.Name]; !ok {
				return fmt.Errorf("%s: %s metric %s missing from the output", r.Workload, kind, d.Name)
			}
		}
		return nil
	}
	if err := same("end-to-end", r.EndToEnd, endToEnd); err != nil {
		return err
	}
	if r.PerLayer == nil {
		return nil
	}
	return same("per-layer", r.PerLayer, perLayer)
}
