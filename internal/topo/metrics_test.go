package topo

import (
	"testing"

	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
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
		ls := `{net="` + g.Name + `"}`
		if got, _ := snap.Get("ab_trace_events_total", ls); got != float64(len(tr.Transcript())) {
			t.Errorf("%s: published ab_trace_events_total = %v, transcript holds %d", order, got, len(tr.Transcript()))
		}
		if got, _ := snap.Get("ab_trace_vm_exec_ns_count", ls); got != float64(vmSpans) {
			t.Errorf("%s: published ab_trace_vm_exec_ns_count = %v, transcript holds %d VM spans", order, got, vmSpans)
		}
	}
}
