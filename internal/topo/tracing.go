package topo

import (
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/tracing"
)

// EnableTracing builds the net's causal tracing plane: one trace engine
// per shard engine (plus the coordinator's control engine, which runs
// fault-plane and barrier work), merged into a single virtual-time
// transcript at every quiescent point. The tracer is attached to
// tracing.DefaultHub under the net's name, replacing the tracer of an
// earlier net of that name, so the process-wide exporter
// (activebridge.WriteTrace) can drain it with no further wiring.
// Idempotent; returns the tracer.
//
// Build calls this automatically when the process-wide tracing plane is
// enabled (tracing.Enable); embedders may also call it directly on one
// net. Tracing never changes a virtual-time output: events are observed
// at emission and merged at quiescent points, so the simulated behaviour
// — every golden transcript — is byte-identical with the plane on or
// off, at any shard count.
func (n *Net) EnableTracing(cfg tracing.Config) *tracing.Tracer {
	if n.tracer != nil {
		return n.tracer
	}
	tr := tracing.New(cfg)
	if n.coord != nil {
		for i := 0; i < n.coord.Shards(); i++ {
			n.coord.Shard(i).SetTraceEngine(tr.Engine(i))
		}
		// The control engine's events (crash/restart marks, fault
		// flips) land in their own engine batch; its quiescent-point
		// windows partition virtual time exactly like the shards'.
		n.coord.Control().SetTraceEngine(tr.Engine(n.coord.Shards()))
	} else {
		n.Sim.SetTraceEngine(tr.Engine(0))
	}
	n.hookQuiescence()
	if n.metricsReg != nil {
		n.instrumentTracer(n.metricsReg, tr)
	}
	tracing.DefaultHub.Attach(n.Graph.Name, tr)
	n.tracer = tr
	return tr
}

// Tracer returns the net's trace plane, or nil when tracing was never
// enabled for this net.
func (n *Net) Tracer() *tracing.Tracer { return n.tracer }

// instrumentTracer registers the ab_trace_* instruments into the net's
// metrics registry; called from whichever of EnableMetrics/EnableTracing
// runs second (both planes are opt-in and order-independent).
func (n *Net) instrumentTracer(reg *metrics.Registry, tr *tracing.Tracer) {
	base := metrics.Labels{{Name: "net", Value: n.Graph.Name}}
	reg.SampleCounter("ab_trace_events_total", "events in the merged sampled transcript", base,
		func() float64 { return float64(len(tr.Transcript())) })
	reg.SampleCounter("ab_trace_spans_total", "span events (dur > 0) in the merged transcript", base,
		func() float64 { return float64(tr.Spans()) })
	reg.SampleCounter("ab_trace_dropped_events_total", "sampled events discarded by the transcript cap", base,
		func() float64 { return float64(tr.Dropped()) })
	reg.SampleCounter("ab_trace_flight_dumps_total", "flight-recorder dumps triggered by traps, rejections, rollbacks, crashes and invariant violations", base,
		func() float64 { return float64(tr.DumpCount()) })
	// Span-derived latency distribution: per-frame VM execution spans in
	// virtual nanoseconds, observed as each quiescent merge drains them.
	tr.SetVMHist(reg.Histogram("ab_trace_vm_exec_ns", "virtual-time VM execution span durations (ns)", base,
		[]float64{100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7}))
}
