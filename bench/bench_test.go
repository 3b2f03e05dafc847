package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/switchware/activebridge/internal/tracing"
)

// The locality-tree reference stream is an input of the benchmark: the
// same seed must give the same bytes on every machine and Go version.
func TestLocalityStreamPinned(t *testing.T) {
	hash := func(seed uint64) string {
		g := newLocalityGen(seed, 256)
		h := sha256.New()
		var buf [4]byte
		for i := 0; i < 50_000; i++ {
			r := g.next()
			binary.LittleEndian.PutUint16(buf[0:], r.src)
			binary.LittleEndian.PutUint16(buf[2:], r.dst)
			h.Write(buf[:])
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	const want = "c2ad084e8282e96adab66ed731b604a5e540a8255cd09625aa5367a0e10ee631"
	if got := hash(1); got != want {
		t.Errorf("seed 1 stream hash = %s, want %s", got, want)
	}
	if hash(1) != hash(1) {
		t.Error("same seed gave two streams")
	}
	if hash(1) == hash(2) {
		t.Error("seeds 1 and 2 gave the same stream")
	}
}

func TestLocalityReuseProbability(t *testing.T) {
	g := newLocalityGen(7, 256)
	for i := 0; i < 100_000; i++ {
		r := g.next()
		if r.src == r.dst || int(r.src) >= 256 || int(r.dst) >= 256 {
			t.Fatalf("draw %d: bad reference %+v", i, r)
		}
	}
	if p := float64(g.reused) / float64(g.draws); math.Abs(p-reuseProb) > 0.01 {
		t.Errorf("reuse probability = %.4f over %d draws, want %.2f +/- 0.01", p, g.draws, reuseProb)
	}
	for src, st := range g.stacks {
		seen := map[uint16]bool{}
		for _, d := range st {
			if seen[d] || int(d) == src {
				t.Fatalf("source %d: stack %v repeats a destination or holds the source", src, st)
			}
			seen[d] = true
		}
		if len(st) > localityStack {
			t.Fatalf("source %d: stack of %d", src, len(st))
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.1, 14}, {0.9, 46},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("quantile reordered its argument")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		0: {Name: "root", Start: 0, End: 100, Parent: -1},
		1: {Name: "a", Start: 10, End: 40, Parent: 0}, // adjacent to b
		2: {Name: "b", Start: 40, End: 60, Parent: 0},
		3: {Name: "a.inner", Start: 15, End: 25, Parent: 1}, // nested in a
		4: {Name: "c", Start: 55, End: 70, Parent: 0},       // overlaps b
		5: {Name: "other", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{
		0: 100 - (30 + 20 + 10), // a, b, and the part of c past b
		1: 30 - 10,
		2: 20,
		3: 10,
		4: 15,
		5: 30,
	}
	got := selfTimes(spans)
	for i := range spans {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"layer.netsim.queue": "netsim", "layer.vm": "vm", "topo.build": "topo",
		"sim.run": "sim.run", "fwd-stream": "harness",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "host_ns_per_op", Better: "lower", Bound: 0.10}
	floor := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10, Floor: 0.005}
	higher := metricDef{Name: "sim_ops_per_sim_s", Better: "higher", Bound: 0}
	for _, c := range []struct {
		name string
		md   metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{100}, []float64{109}, "ok"},
		{"past bound", lower, []float64{100}, []float64{111}, "regressed"},
		{"better", lower, []float64{100}, []float64{50}, "ok"},
		{"under the floor", floor, []float64{0.001}, []float64{0.004}, "ok"},
		{"past the floor", floor, []float64{0.010}, []float64{0.020}, "regressed"},
		{"exact metric equal", higher, []float64{1530.77}, []float64{1530.77}, "ok"},
		{"exact metric moved", higher, []float64{1530.77}, []float64{1530.76}, "regressed"},
		{"noisy", lower, []float64{80, 100, 120, 140}, []float64{90, 110, 130, 150}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, "ok"},
	} {
		spread := math.Max(spreadOf(c.a), spreadOf(c.b))
		if got := verdict(c.md, c.a, c.b, spread); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke runs all six workloads, traced, at a hundredth of the scale:
// every check must pass, every declared metric must be present, and the
// simulator's process-wide knobs must come back as they were.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := man.agrees(); err != nil {
		t.Fatal(err)
	}
	before := readSimDefaults()
	rec := newSpanRecorder()
	for i := range workloads {
		def := &workloads[i]
		res, err := runWorkload(def, runOpts{seed: 1, scale: 0.01, rec: rec, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", def.name, c.Name, c.Detail)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", def.name, res.Correct, res.Attempted, res.Failed)
		}
		if err := res.complete(); err != nil {
			t.Error(err)
		}
		if res.Slices < minSlices {
			t.Errorf("%s: %d slices", def.name, res.Slices)
		}
		for _, md := range declaredEndToEnd {
			if v := res.EndToEnd[md.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", def.name, md.Name, v)
			}
		}
	}
	if after := readSimDefaults(); after != before {
		t.Errorf("simulator defaults changed: %+v, were %+v", after, before)
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, rec.spans); err != nil {
		t.Fatal(err)
	}
	if err := tracing.LintChrome(&buf); err != nil {
		t.Errorf("span export does not lint: %v", err)
	}
	self := selfTimes(rec.spans)
	var roots, sum int64
	for i, s := range rec.spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) never ended", i, s.Name)
		}
		if s.Parent < 0 {
			roots += s.End - s.Start
		}
		sum += self[i]
	}
	if sum != roots {
		t.Errorf("self times add up to %d ns, the six workload spans to %d", sum, roots)
	}
}
