// Determinism goldens for the full scenario list. These tests live in an
// external test package so they can pull in internal/experiments (which
// imports internal/scenario) without a cycle.
package scenario_test

import (
	"sync"
	"testing"

	"github.com/switchware/activebridge/internal/experiments"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
)

var (
	serialOnce    sync.Once
	serialResults []scenario.Result
)

// runSerial executes every scenario once, serially, shared by all tests
// in this package.
func runSerial() []scenario.Result {
	serialOnce.Do(func() {
		serialResults = scenario.RunAll(experiments.Scenarios(), netsim.DefaultCostModel(), 1)
	})
	return serialResults
}

// requireMatchesSerial holds a rerun of the whole scenario list under some
// variant (label names it) to the serial run: the same result count, the
// same order by name, every scenario OK, and identical fingerprints and
// table bytes. The serial run completes before rerun is called, so rerun
// may switch a process-wide knob for its own duration.
func requireMatchesSerial(t *testing.T, label string, rerun func() []scenario.Result) {
	t.Helper()
	serial := runSerial()
	results := rerun()
	if len(results) != len(serial) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(results), len(serial))
	}
	for i := range serial {
		s, p := &serial[i], &results[i]
		if s.Name != p.Name {
			t.Fatalf("%s: result %d: order differs (%s vs serial %s)", label, i, p.Name, s.Name)
		}
		if !p.OK() {
			t.Errorf("%s (%s): run=%v check=%v", p.Name, label, p.Err, p.CheckErr)
			continue
		}
		if s.Fingerprint != p.Fingerprint {
			t.Errorf("%s: %s fingerprint %s != serial %s", s.Name, label, p.Fingerprint, s.Fingerprint)
		}
		if s.Table.String() != p.Table.String() {
			t.Errorf("%s: %s table bytes differ from serial", s.Name, label)
		}
	}
}

// goldenFingerprints pins the rendered virtual-time output of every
// scenario, captured from the serial pre-parallel-runner
// build. Any change to scheduling order, the cost model, the switchlets
// or a table's wording moves the affected entry; update it only with a
// justified, deliberate change (the test failure prints the new value).
var goldenFingerprints = map[string]string{
	"table1-transition":           "59f1832459cd0fe6",
	"table1-fallback":             "a8e46d623406c1e9",
	"fig9-ping-latency":           "bbb68c2380e6a653",
	"fig10-ttcp-throughput":       "458ac5b40d1b5f10",
	"frame-rates":                 "e9be122c5a1fefa6",
	"fig5-decomposition":          "45187c8abdc7a917",
	"agility-ring":                "aa4c3dcae50043bd",
	"netload-tftp":                "de3f91c7a6d35126",
	"deployment-incremental":      "6f4b6d6e1df0fecf",
	"scalability":                 "d459ff89dc2ee60c",
	"ablation-native-vs-bytecode": "8cef595d61141b94",
	"ablation-learning":           "a18478d776c80636",
	"ablation-kernel-cost":        "75f754379b08ce38",
	"ablation-gc-pressure":        "773fde77469f0d2a",
	"scale-chain16":               "5b8d0deff123f665",
	"scale-stp-ring":              "03a42eaf1ead8862",
	"scale-tree64":                "fe4735374bfe263a",
	"scale-mixed-fabric":          "4177b6925969f837",
	"scale-hotswap":               "8c602d684ae8e1ea",
	"scale-broadcast-storm":       "e7148a6218f3c778",
	"scale-fattree256":            "51948f6205ae6da8",
	"scale-ring8-upgrade":         "b8f0ed21ca425a12",
	"scale-storm-containment":     "c49013bbe3c70a3e",
	"chaos-lossy-deployment":      "263b623d064ff3bf",
	"chaos-flapping-ring":         "321410c6072bdcb6",
	"chaos-crash-upgrade":         "0f553ca4b4da0356",
	"chaos-partition-heal":        "c1a29bc66e65e093",
}

// TestScenarioGoldenFingerprints pins every scenario's virtual-time
// output. A fingerprint moving means the simulation's behaviour changed —
// exactly what an optimization must not do. Names key the goldens, abbench
// -run and Match, so a name listed twice fails here too.
func TestScenarioGoldenFingerprints(t *testing.T) {
	results := runSerial()
	seen := map[string]bool{}
	for i := range results {
		r := &results[i]
		if seen[r.Name] {
			t.Errorf("%s: scenario listed twice", r.Name)
		}
		seen[r.Name] = true
		if !r.OK() {
			t.Errorf("%s: run=%v check=%v", r.Name, r.Err, r.CheckErr)
			continue
		}
		want, pinned := goldenFingerprints[r.Name]
		if !pinned {
			t.Errorf("%s: no golden pinned; add %q", r.Name, r.Fingerprint)
			continue
		}
		if r.Fingerprint != want {
			t.Errorf("%s: fingerprint %s deviates from golden %s", r.Name, r.Fingerprint, want)
		}
	}
	for name := range goldenFingerprints {
		if !seen[name] {
			t.Errorf("golden entry %q has no scenario", name)
		}
	}
}

// TestScenarioChecksPass runs every scenario's self-check (also covered
// by the golden loop, kept separate so a check regression is named even
// when fingerprints still match).
func TestScenarioChecksPass(t *testing.T) {
	for _, r := range runSerial() {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		if r.CheckErr != nil {
			t.Errorf("%s: check: %v", r.Name, r.CheckErr)
		}
	}
}

// TestParallelMatchesSerial reruns the entire list with a concurrent
// worker pool and requires byte-identical rendered output. Run under
// -race (the CI scenario job does) this also proves the sims share no
// mutable state.
func TestParallelMatchesSerial(t *testing.T) {
	requireMatchesSerial(t, "parallel", func() []scenario.Result {
		return scenario.RunAll(experiments.Scenarios(), netsim.DefaultCostModel(), 8)
	})
}
