package topo

import (
	"runtime"
	"testing"

	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/workload"
)

// TestTraceMetricsPublishedAfterFlush pins the order of a quiescent
// point: the tracer merges before the registry publishes, so the
// ab_trace_* samplers read the window that just closed, whichever plane
// was enabled first.
func TestTraceMetricsPublishedAfterFlush(t *testing.T) {
	for _, order := range []string{"metrics-first", "tracing-first"} {
		g, h1, h2, _ := twoLAN(LearningBridge)
		g.Name = "trace-publish-" + order
		net := g.MustBuild(netsim.DefaultCostModel())
		var reg *metrics.Registry
		var tr *tracing.Tracer
		if order == "metrics-first" {
			reg = net.EnableMetrics()
			tr = net.EnableTracing(tracing.Config{SampleProb: 1})
		} else {
			tr = net.EnableTracing(tracing.Config{SampleProb: 1})
			reg = net.EnableMetrics()
		}
		metrics.DefaultHub.Detach(g.Name)
		tracing.DefaultHub.Detach(tr)
		ls := `{net="` + g.Name + `"}`
		// Served from the first scrape, before any quiescent point.
		if _, ok := reg.Snapshot().Get("ab_trace_events_total", ls); !ok {
			t.Errorf("%s: ab_trace_events_total not published at enable time", order)
		}

		net.Warm(h1, h2)
		evs := tr.Transcript()
		vmSpans, spans := 0, 0
		for _, ev := range evs {
			if ev.Kind == tracing.KindVM {
				vmSpans++
			}
			if ev.Dur > 0 {
				spans++
			}
		}
		if len(evs) == 0 || vmSpans == 0 || spans == len(evs) {
			t.Fatalf("%s: warm-up recorded %d events, %d spans, %d VM spans", order, len(evs), spans, vmSpans)
		}
		snap := reg.Snapshot()
		if got, _ := snap.Get("ab_trace_events_total", ls); got != float64(len(evs)) {
			t.Errorf("%s: published ab_trace_events_total = %v, transcript holds %d", order, got, len(evs))
		}
		if got, _ := snap.Get("ab_trace_spans_total", ls); got != float64(spans) {
			t.Errorf("%s: published ab_trace_spans_total = %v, transcript holds %d spans", order, got, spans)
		}
		if got, _ := snap.Get("ab_trace_vm_exec_ns_count", ls); got != float64(vmSpans) {
			t.Errorf("%s: published ab_trace_vm_exec_ns_count = %v, transcript holds %d VM spans", order, got, vmSpans)
		}
	}
}

// TestPublishAllocBudget pins the cost of one Publish on a two-host
// learning net with metrics on and tracing at 1 %, after a stream has
// run: a publish builds one document (its points, its family index and
// itself), and may allocate at most 4 times and 2 816 B doing it, one
// small malloc above the measured 3 and 2 688 B. The bridge's
// ab_bridge_switchlet_info label sets are built once per change of its
// installed set, not per publish. -v logs the measured figures.
func TestPublishAllocBudget(t *testing.T) {
	g, h1, h2, _ := twoLAN(LearningBridge)
	g.Name = "publish-budget"
	net := g.MustBuild(netsim.DefaultCostModel())
	reg := net.EnableMetrics()
	tr := net.EnableTracing(tracing.Config{SampleProb: 0.01})
	defer metrics.DefaultHub.Detach(g.Name)
	defer tracing.DefaultHub.Detach(tr)
	tt := workload.NewTtcp(net.Host(h1), net.Host(h2), 1024, 1<<20)
	tt.Run(net.Sim.Now() + netsim.Time(10*netsim.Second))
	if !tt.Done() {
		t.Fatal("stream did not complete")
	}

	reg.Publish() // the previous document sizes the next one's points
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		reg.Publish()
	}
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("per Publish: %.1f mallocs, %.0f B, %d points", mallocs, bytes, len(reg.Snapshot().Series))
	if mallocs > 4 || bytes > 2816 {
		t.Fatalf("Publish allocates %.1f times and %.0f B, want <= 4 and <= 2816", mallocs, bytes)
	}
}
