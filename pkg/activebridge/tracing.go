package activebridge

import (
	"io"

	"github.com/switchware/activebridge/internal/tracing"
)

// Causal tracing. The tracing plane records a virtual-time event per
// NIC transmit, wire transit, shard crossing, bridge demux decision, VM
// handler execution (with tier and deopt detail) and forward/drop
// verdict, all stitched by a trace ID minted at the originating NIC.
// Like the metrics plane it observes without perturbing: virtual-time
// outputs are byte-identical with tracing on or off, at any shard
// count, and the merged transcript itself is deterministic.
//
// The minimal embedding mirrors metrics:
//
//	activebridge.EnableTracing()
//	net := topology.MustBuild(cost) // auto-traced
//	... run ...
//	activebridge.WriteTrace(f)      // Chrome/Perfetto JSON
//
// net.Tracer() returns the net's tracer for programmatic access to the
// transcript and any flight-recorder dumps (written automatically on VM
// traps, switchlet load rejections, manager rollbacks, crashes and
// engine invariant violations).

// Tracer is one net's tracing plane.
type Tracer = tracing.Tracer

// TraceConfig selects the trace seed, sampling probability, flight-ring
// size and transcript cap. The zero value means full sampling with
// default sizes.
type TraceConfig = tracing.Config

// TraceEvent is one record of a merged transcript or a flight dump:
// virtual time VT, span length Dur (0 for an instant), trace ID, Kind and
// Node, plus what happened held as operands (Form, Name, N) rather than
// formatted text — recording an event formats nothing, which is why a
// tracer whose traces are not sampled costs the frame path no
// allocation. Call Text() for the human-readable detail; it renders the
// same wording `trace dump` and the Chrome export show.
type TraceEvent = tracing.Event

// TraceFlightDump is one flight-recorder post-mortem.
type TraceFlightDump = tracing.FlightDump

// EnableTracing turns the tracing plane on process-wide: every Net
// built afterwards is traced (with the config set by SetTraceConfig)
// and attached to the default trace hub.
func EnableTracing() { tracing.Enable() }

// TracingEnabled reports whether the tracing plane is on.
func TracingEnabled() bool { return tracing.Enabled() }

// SetTraceConfig sets the config Nets built after EnableTracing use.
func SetTraceConfig(cfg TraceConfig) { tracing.SetDefaultConfig(cfg) }

// WriteTrace flushes every hub-attached tracer and writes one Chrome
// trace-event JSON document (open it in Perfetto or chrome://tracing)
// covering all of them, one process per net.
func WriteTrace(w io.Writer) error {
	trs := tracing.DefaultHub.Tracers()
	for _, tr := range trs {
		tr.Flush()
	}
	return tracing.WriteChromeAll(w, trs)
}

// DetachTracing removes a finished net's tracer from the default hub
// (the tracing analogue of DetachMetrics: rebuilding a net under the
// same name also replaces its tracer). Reports whether it was attached.
func DetachTracing(t *Tracer) bool { return tracing.DefaultHub.Detach(t) }
