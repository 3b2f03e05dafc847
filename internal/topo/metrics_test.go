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
		vmSpans := 0
		for _, ev := range tr.Transcript() {
			if ev.Kind == tracing.KindVM {
				vmSpans++
			}
		}
		if len(tr.Transcript()) == 0 || vmSpans == 0 {
			t.Fatalf("%s: warm-up recorded %d events, %d VM spans", order, len(tr.Transcript()), vmSpans)
		}
		snap := reg.Snapshot()
		if got, _ := snap.Get("ab_trace_events_total", ls); got != float64(len(tr.Transcript())) {
			t.Errorf("%s: published ab_trace_events_total = %v, transcript holds %d", order, got, len(tr.Transcript()))
		}
		if got, _ := snap.Get("ab_trace_vm_exec_ns_count", ls); got != float64(vmSpans) {
			t.Errorf("%s: published ab_trace_vm_exec_ns_count = %v, transcript holds %d VM spans", order, got, vmSpans)
		}
	}
}

// TestPublishAllocBudget pins the cost of one Publish on a two-host
// learning net with metrics on and tracing at 1 %, after a stream has
// run: a publish builds one document, and may allocate at most 14 times
// and 4 KB doing it. -v logs the measured figures.
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
	if mallocs > 14 || bytes > 4096 {
		t.Fatalf("Publish allocates %.1f times and %.0f B, want <= 14 and <= 4096", mallocs, bytes)
	}
}
