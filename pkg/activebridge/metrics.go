package activebridge

import (
	"github.com/switchware/activebridge/internal/metrics"
)

// Live telemetry. The metrics plane observes a running simulation
// without perturbing it: every instrument is a sampler read at the
// engine's quiescent points or a histogram of values the simulation
// already computes, published at the same points, so virtual-time
// outputs are byte-identical with metrics on or off, at any shard
// count. Scrapers read atomically published cells and never contend
// with the event loop.
//
// The minimal embedding is two calls before building topologies:
//
//	activebridge.EnableMetrics()
//	srv, err := activebridge.ServeMetrics("127.0.0.1:9090")
//	...
//	net := topology.MustBuild(cost) // auto-instrumented, served for free
//
// after which /metrics serves Prometheus text and /snapshot structured
// JSON for every net built while metrics were enabled. net.Metrics()
// returns the net's registry for registering workload or switchlet
// instruments of your own (see the internal/metrics godoc for the
// naming scheme).

// MetricsRegistry is one net's instrument set.
type MetricsRegistry = metrics.Registry

// MetricsLabels is an ordered label set for instrument registration.
type MetricsLabels = metrics.Labels

// MetricsServer is a running scrape endpoint.
type MetricsServer = metrics.Server

// MetricsSnapshot is one registry's published values as plain data.
type MetricsSnapshot = metrics.Snapshot

// EnableMetrics turns the metrics plane on process-wide: every Net
// built afterwards is instrumented and attached to the default hub.
func EnableMetrics() { metrics.Enable() }

// MetricsEnabled reports whether the metrics plane is on.
func MetricsEnabled() bool { return metrics.Enabled() }

// ServeMetrics binds addr (host:port, ":0" for an ephemeral port) and
// serves every instrumented net's telemetry: Prometheus text on
// /metrics, JSON on /snapshot. Close the returned server to stop.
func ServeMetrics(addr string) (*MetricsServer, error) {
	return metrics.Serve(addr, metrics.DefaultHub)
}

// DetachMetrics removes a finished net's registry from the served hub.
// A registry's samplers pin the simulation they observe, so a
// long-running embedder building many topologies should detach each
// net when done with it (rebuilding under the same name also replaces
// the old registry). Reports whether the net was attached.
func DetachMetrics(net string) bool { return metrics.DefaultHub.Detach(net) }
