package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testLabels() Labels {
	return Labels{{Name: "net", Value: "t"}}
}

func zero() float64 { return 0 }

func TestCounterGaugeHistogramPublish(t *testing.T) {
	r := NewRegistry("t")
	frames, depth := uint64(0), 0.0
	r.SampleCounter("ab_test_frames_total", "frames", testLabels(), func() float64 { return float64(frames) })
	r.SampleGauge("ab_test_depth", "depth", testLabels(), func() float64 { return depth })
	h := r.Histogram("ab_test_rtt_ms", "rtt", testLabels(), []float64{1, 5, 10})

	frames += 3
	frames++
	depth = 7.5
	h.Observe(0.5)
	h.Observe(6)
	h.Observe(100)

	// Nothing visible before Publish.
	snap := r.Snapshot()
	if v, ok := snap.Get("ab_test_frames_total", `{net="t"}`); ok {
		t.Fatalf("pre-publish counter present with value %v", v)
	}

	r.Publish()
	snap = r.Snapshot()
	if v, _ := snap.Get("ab_test_frames_total", `{net="t"}`); v != 4 {
		t.Fatalf("counter = %v, want 4", v)
	}
	if v, _ := snap.Get("ab_test_depth", `{net="t"}`); v != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", v)
	}
	if v, _ := snap.Get("ab_test_rtt_ms_count", `{net="t"}`); v != 3 {
		t.Fatalf("hist count = %v, want 3", v)
	}
	if v, _ := snap.Get("ab_test_rtt_ms_sum", `{net="t"}`); v != 106.5 {
		t.Fatalf("hist sum = %v, want 106.5", v)
	}
	// Buckets are cumulative: le=1 -> 1, le=5 -> 1, le=10 -> 2, +Inf -> 3.
	for _, want := range []struct {
		le string
		v  float64
	}{{"1", 1}, {"5", 1}, {"10", 2}, {"+Inf", 3}} {
		got, ok := snap.Get("ab_test_rtt_ms_bucket", `{net="t",le="`+want.le+`"}`)
		if !ok || got != want.v {
			t.Fatalf("bucket le=%s = %v (ok=%v), want %v", want.le, got, ok, want.v)
		}
	}
}

func TestSampledInstrumentsReadAtPublish(t *testing.T) {
	r := NewRegistry("t")
	n := uint64(0)
	r.SampleCounter("ab_test_events_total", "events", nil, func() float64 { return float64(n) })
	n = 42
	r.Publish()
	if v, _ := r.Snapshot().Get("ab_test_events_total", ""); v != 42 {
		t.Fatalf("sampled counter = %v, want 42", v)
	}
	n = 50 // not republished: snapshot stays at the quiescent value
	if v, _ := r.Snapshot().Get("ab_test_events_total", ""); v != 42 {
		t.Fatalf("unpublished sampled counter moved: %v", v)
	}
}

func TestDynamicFamily(t *testing.T) {
	r := NewRegistry("t")
	mods := []string{"learning"}
	r.Dynamic("ab_test_switchlet_info", "installed", func(emit func(Labels, float64)) {
		for _, m := range mods {
			emit(Labels{{Name: "module", Value: m}}, 1)
		}
	})
	r.Publish()
	if v, ok := r.Snapshot().Get("ab_test_switchlet_info", `{module="learning"}`); !ok || v != 1 {
		t.Fatalf("dynamic series missing: %v %v", v, ok)
	}
	mods = append(mods, "spanning")
	r.Publish()
	if v, ok := r.Snapshot().Get("ab_test_switchlet_info", `{module="spanning"}`); !ok || v != 1 {
		t.Fatalf("dynamic series not re-enumerated: %v %v", v, ok)
	}
	// A point whose labels differ from those at its place in the
	// previous document renders its own.
	mods = mods[1:]
	r.Publish()
	snap := r.Snapshot()
	if _, ok := snap.Get("ab_test_switchlet_info", `{module="learning"}`); ok || len(snap.Series) != 1 {
		t.Fatalf("removed dynamic series still published: %v", snap.Series)
	}
	if v, ok := snap.Get("ab_test_switchlet_info", `{module="spanning"}`); !ok || v != 1 {
		t.Fatalf("dynamic series lost on a shift: %v %v", v, ok)
	}
}

func TestRegistrationMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"bad name", func(r *Registry) { r.SampleGauge("1bad", "", nil, zero) }},
		{"counter without _total", func(r *Registry) { r.SampleCounter("ab_test_frames", "", nil, zero) }},
		{"duplicate series", func(r *Registry) {
			r.SampleGauge("ab_test_g", "", nil, zero)
			r.SampleGauge("ab_test_g", "", nil, zero)
		}},
		{"kind clash", func(r *Registry) {
			r.SampleGauge("ab_test_g", "", nil, zero)
			r.SampleCounter("ab_test_g", "", testLabels(), zero)
		}},
		{"bad label", func(r *Registry) { r.SampleGauge("ab_test_g", "", Labels{{Name: "1x", Value: "v"}}, zero) }},
		{"descending bounds", func(r *Registry) { r.Histogram("ab_test_h", "", nil, []float64{2, 1}) }},
		{"help clash", func(r *Registry) {
			r.SampleGauge("ab_test_g", "one thing", testLabels(), zero)
			r.SampleGauge("ab_test_g", "another thing", testLabels().With("x", "y"), zero)
		}},
		{"bucket layout clash", func(r *Registry) {
			r.Histogram("ab_test_h", "", testLabels(), []float64{1, 2, 3})
			r.Histogram("ab_test_h", "", testLabels().With("x", "y"), []float64{10, 20, 30})
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn(NewRegistry("t"))
		}()
	}
}

// TestInstrumentUpdateAllocBudget pins the hot-path contract of the one
// live instrument: observing into a histogram allocates nothing, so the
// ping reply path and the tracer's merge may feed it without perturbing
// the zero-allocation budgets.
func TestInstrumentUpdateAllocBudget(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("ab_test_rtt_ms", "", nil, []float64{1, 2, 4, 8, 16, 32, 64})
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(7)
	}); allocs != 0 {
		t.Fatalf("histogram observation allocs %v/op, want 0", allocs)
	}
}

func TestRenderTextLintsClean(t *testing.T) {
	r := NewRegistry("t")
	r.SampleCounter("ab_test_frames_total", "frames seen", testLabels(), func() float64 { return 9 })
	r.SampleGauge("ab_test_depth", "queue depth", testLabels().With("shard", "0"), zero)
	// Exposition format 0.0.4 escapes HELP text: backslash as \\, newline as \n.
	r.SampleGauge("ab_test_help_escape", "line one\nline two \\ back", testLabels(), zero)
	h := r.Histogram("ab_test_rtt_ms", "rtt distribution", testLabels(), []float64{1, 10})
	r.Dynamic("ab_test_info", "installed modules", func(emit func(Labels, float64)) {
		emit(Labels{{Name: "module", Value: `we"ird\valu` + "\ne"}}, 1)
	})
	h.Observe(3)
	r.Publish()

	const wantHelp = `# HELP ab_test_help_escape line one\nline two \\ back` + "\n"
	var sb strings.Builder
	r.RenderText(&sb)
	if err := LintString(sb.String()); err != nil {
		t.Fatalf("rendered text fails lint: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), wantHelp) {
		t.Fatalf("HELP text not escaped:\n%s", sb.String())
	}

	hub := &Hub{}
	hub.Attach(r)
	r2 := NewRegistry("u")
	r2.SampleCounter("ab_test_frames_total", "frames seen", Labels{{Name: "net", Value: "u"}}, func() float64 { return 1 })
	r2.Publish()
	hub.Attach(r2)
	merged := hub.RenderText()
	if err := LintString(merged); err != nil {
		t.Fatalf("merged hub text fails lint: %v\n%s", err, merged)
	}
	if !strings.Contains(merged, wantHelp) {
		t.Fatalf("merged HELP text not escaped:\n%s", merged)
	}
	if strings.Count(merged, "# TYPE ab_test_frames_total") != 1 {
		t.Fatalf("family not merged across nets:\n%s", merged)
	}
}

// TestTextAndSnapshotAgree pins that the text exposition and the JSON
// snapshot flatten to the same series and values — they share one
// family walk, and this keeps them from ever drifting apart.
func TestTextAndSnapshotAgree(t *testing.T) {
	r := NewRegistry("t")
	r.SampleCounter("ab_test_frames_total", "frames", testLabels(), func() float64 { return 7 })
	r.SampleGauge("ab_test_depth", "depth", testLabels(), func() float64 { return 2.5 })
	h := r.Histogram("ab_test_rtt_ms", "rtt", testLabels(), []float64{1, 10})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(40)
	r.Publish()

	var sb strings.Builder
	r.RenderText(&sb)
	textRows := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			textRows[line] = true
		}
	}
	snap := r.Snapshot()
	if len(snap.Series) != len(textRows) {
		t.Fatalf("snapshot has %d series, text has %d rows", len(snap.Series), len(textRows))
	}
	for _, p := range snap.Series {
		row := p.Name + p.Labels + " " + FormatValue(p.Value)
		if !textRows[row] {
			t.Errorf("snapshot point %q has no matching text row", row)
		}
	}
}

func TestLintCatchesMalformedDocuments(t *testing.T) {
	cases := []struct {
		name, doc, frag string
	}{
		{"bad metric name", "0bad 1\n", "invalid metric name"},
		{"bad value", "ab_x{a=\"b\"} banana\n", "bad value"},
		{"unquoted label", "ab_x{a=b} 1\n", "not quoted"},
		{"duplicate series", "ab_x 1\nab_x 1\n", "duplicate series"},
		{"ungrouped", "ab_x 1\nab_y 1\nab_x{a=\"b\"} 2\n", "not grouped"},
		{"negative counter", "# TYPE ab_x_total counter\nab_x_total -1\n", "negative"},
		{"counter naming", "# TYPE ab_x counter\nab_x 1\n", "does not end in _total"},
		{"double TYPE", "# TYPE ab_x gauge\n# TYPE ab_x gauge\n", "second TYPE"},
		{"TYPE after samples", "ab_x 1\n# TYPE ab_x gauge\n", "after its samples"},
		{"unknown type", "# TYPE ab_x widget\n", "unknown type"},
		{"bucket without le", "# TYPE ab_h histogram\nab_h_bucket 1\n", "no le label"},
		{"non-cumulative buckets", "# TYPE ab_h histogram\nab_h_bucket{le=\"1\"} 5\nab_h_bucket{le=\"+Inf\"} 3\n", "not cumulative"},
		{"NaN counter", "# TYPE ab_x_total counter\nab_x_total NaN\n", "not finite"},
		{"Inf counter", "# TYPE ab_x_total counter\nab_x_total +Inf\n", "not finite"},
		{"missing inf", "# TYPE ab_h histogram\nab_h_bucket{le=\"1\"} 5\n", "missing le=\"+Inf\""},
		{"bad escape", `ab_x{a="\q"} 1` + "\n", "bad escape"},
	}
	for _, c := range cases {
		if err := LintString(c.doc); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.frag)
		}
	}
	if err := LintString("# just a comment\nab_ok 1 1690000000000\n"); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
}

func TestHandlerServesMetricsAndSnapshot(t *testing.T) {
	hub := &Hub{}
	r := NewRegistry("t")
	r.SampleCounter("ab_test_frames_total", "frames", testLabels(), func() float64 { return 5 })
	r.Publish()
	hub.Attach(r)

	srv := httptest.NewServer(Handler(hub))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if err := LintString(text); err != nil {
		t.Errorf("/metrics fails lint: %v", err)
	}
	if !strings.Contains(text, `ab_test_frames_total{net="t"} 5`) {
		t.Errorf("/metrics missing series:\n%s", text)
	}

	body, ctype := get("/snapshot")
	if ctype != "application/json" {
		t.Errorf("/snapshot content type %q", ctype)
	}
	var hs HubSnapshot
	if err := json.Unmarshal([]byte(body), &hs); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if len(hs.Nets) != 1 || hs.Nets[0].Net != "t" {
		t.Fatalf("snapshot nets = %+v", hs.Nets)
	}
}

func TestHubReplacesSameNet(t *testing.T) {
	hub := &Hub{}
	a := NewRegistry("same")
	b := NewRegistry("same")
	hub.Attach(a)
	hub.Attach(b)
	regs := hub.Registries()
	if len(regs) != 1 || regs[0] != b {
		t.Fatalf("hub did not replace same-net registry: %d regs", len(regs))
	}
}

// TestPanickedRegistrationDoesNotPoisonRegistry: a recovered
// registration panic (the scenario runner recovers scenario panics)
// must leave the registry usable — a later Publish and scrape still
// serve the series registered before it.
func TestPanickedRegistrationDoesNotPoisonRegistry(t *testing.T) {
	r := NewRegistry("t")
	r.SampleGauge("ab_test_g", "g", testLabels(), zero)
	for _, bad := range []func(){
		func() { r.Histogram("ab_test_g", "g", nil, []float64{1}) }, // kind clash inside Histogram
		func() {
			r.SampleCounter("ab_test_g_total", "", nil, zero)
			r.SampleCounter("ab_test_g_total", "x", nil, zero)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("misuse did not panic")
				}
			}()
			bad()
		}()
	}
	r.Publish()
	if _, ok := r.Snapshot().Get("ab_test_g", `{net="t"}`); !ok {
		t.Fatal("series registered before the panic is not published")
	}
}

// TestPublishedDocumentIsImmutable pins the reader contract: what a
// reader took from one Publish never changes, and each Publish replaces
// the whole document — so a series registered after the last Publish is
// absent until the next one, in the snapshot and the text alike.
func TestPublishedDocumentIsImmutable(t *testing.T) {
	r := NewRegistry("t")
	n := 1.0
	r.SampleGauge("ab_test_a", "a", testLabels(), func() float64 { return n })
	r.Publish()
	before := r.Snapshot()
	var text strings.Builder
	r.RenderText(&text)

	n = 2
	r.SampleGauge("ab_test_b", "b", testLabels(), func() float64 { return 3 })
	if len(before.Series) != 1 || before.Series[0].Value != 1 {
		t.Fatalf("snapshot moved after registration: %+v", before.Series)
	}
	if _, ok := r.Snapshot().Get("ab_test_b", `{net="t"}`); ok {
		t.Fatal("series registered after the last Publish is visible before the next")
	}
	var again strings.Builder
	r.RenderText(&again)
	if again.String() != text.String() {
		t.Fatalf("text moved without a Publish:\n%s\nwas\n%s", again.String(), text.String())
	}

	r.Publish()
	if len(before.Series) != 1 || before.Series[0].Value != 1 {
		t.Fatalf("snapshot moved after Publish: %+v", before.Series)
	}
	after := r.Snapshot()
	if v, _ := after.Get("ab_test_a", `{net="t"}`); v != 2 {
		t.Fatalf("republished a = %v, want 2", v)
	}
	if v, ok := after.Get("ab_test_b", `{net="t"}`); !ok || v != 3 {
		t.Fatalf("b after the next Publish = %v (ok=%v), want 3", v, ok)
	}
}

// TestReadersRaceFreeWithPublish runs the single writer (registration
// and Publish) against concurrent readers of every kind. Under -race it
// checks that readers touch nothing but published documents.
func TestReadersRaceFreeWithPublish(t *testing.T) {
	hub := &Hub{}
	r := NewRegistry("t")
	hub.Attach(r)
	h := r.Histogram("ab_test_h", "h", testLabels(), []float64{1, 10})
	r.Dynamic("ab_test_info", "info", func(emit func(Labels, float64)) {
		emit(Labels{{Name: "module", Value: "m"}}, 1)
	})
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			r.RenderText(&sb)
			_ = hub.RenderText()
			_ = hub.SnapshotAll()
		}
	}()
	for i := 0; i < 200; i++ {
		r.SampleCounter("ab_test_c_total", "c", testLabels().With("i", FormatValue(float64(i))), func() float64 { return float64(i) })
		h.Observe(float64(i % 20))
		r.Publish()
	}
	close(stop)
	<-readers
	if err := LintString(hub.RenderText()); err != nil {
		t.Fatalf("final text fails lint: %v", err)
	}
}

func TestHubDetach(t *testing.T) {
	hub := &Hub{}
	for _, n := range []string{"a", "b", "c"} {
		hub.Attach(NewRegistry(n))
	}
	if !hub.Detach("b") {
		t.Fatal("Detach(b) = false")
	}
	if hub.Detach("b") {
		t.Fatal("second Detach(b) = true")
	}
	names := []string{}
	for _, r := range hub.Registries() {
		names = append(names, r.Net)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "c" {
		t.Fatalf("after detach: %v", names)
	}
	// Index map stays coherent: replacing c must not resurrect b.
	c2 := NewRegistry("c")
	hub.Attach(c2)
	regs := hub.Registries()
	if len(regs) != 2 || regs[1] != c2 {
		t.Fatalf("attach-after-detach broken: %d regs", len(regs))
	}
}

func TestFormatValue(t *testing.T) {
	if s := formatValue(3); s != "3" {
		t.Errorf("formatValue(3) = %s", s)
	}
	if s := formatValue(3.5); s != "3.5" {
		t.Errorf("formatValue(3.5) = %s", s)
	}
	if s := formatValue(math.Inf(1)); s != "+Inf" {
		t.Errorf("formatValue(+Inf) = %s", s)
	}
}
