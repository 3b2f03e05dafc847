package topo

import (
	"strconv"
	"time"

	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
)

// EnableMetrics builds the net's telemetry registry: per-shard engine
// gauges, every bridge's counters (labeled with net/bridge/shard
// identity from the build plan), and a publish at the engine's quiescent
// points. The registry is attached to metrics.DefaultHub so the
// process-wide endpoint (activebridge.ServeMetrics) serves it with no
// further wiring. Idempotent; returns the registry.
//
// Build calls this automatically when the process-wide metrics plane is
// enabled (metrics.Enable); embedders may also call it directly on one
// net. Enabling metrics never changes a virtual-time output: all
// instruments are quiescent-point samplers over state the simulation
// already keeps.
func (n *Net) EnableMetrics() *metrics.Registry {
	if n.metricsReg != nil {
		return n.metricsReg
	}
	reg := metrics.NewRegistry(n.Graph.Name)
	base := metrics.Labels{{Name: "net", Value: n.Graph.Name}}

	if n.coord != nil {
		c := n.coord
		reg.SampleGauge("ab_engine_shards", "shard engines this net runs on", base,
			func() float64 { return float64(c.Shards()) })
		reg.SampleCounter("ab_engine_quiesce_total", "quiescent points reached by the engine", base,
			func() float64 { return float64(c.Quiesces()) })
		for i := 0; i < c.Shards(); i++ {
			i := i
			ls := base.With("shard", strconv.Itoa(i))
			// One ShardStats observation per shard per publish: the
			// samplers run single-threaded at quiescence, so a cache
			// keyed on the quiesce count shares the mutex-and-port scan
			// across the four gauges that read it.
			var cached netsim.ShardStats
			cachedAt := ^uint64(0)
			stats := func() netsim.ShardStats {
				if q := c.Quiesces(); q != cachedAt {
					cached, cachedAt = c.ShardStats(i), q
				}
				return cached
			}
			reg.SampleGauge("ab_shard_clock_seconds", "engine virtual clock (aligned at quiescence)", ls,
				func() float64 { return c.Shard(i).Now().Seconds() })
			reg.SampleCounter("ab_shard_events_total", "events executed by the engine", ls,
				func() float64 { return float64(c.Shard(i).Executed()) })
			reg.SampleGauge("ab_shard_events_per_second", "wall-clock event rate since the previous publish", ls,
				eventsPerSecond(func() uint64 { return c.Shard(i).Executed() }))
			reg.SampleGauge("ab_shard_heap_depth", "events pending in the engine's heap", ls,
				func() float64 { return float64(stats().HeapDepth) })
			reg.SampleGauge("ab_shard_last_event_age_ns", "virtual time since the shard's last executed event at quiescence (includes idleness)", ls,
				func() float64 { return float64(stats().LastEventAge) })
			reg.SampleGauge("ab_shard_mailbox_backlog", "cross-shard messages queued toward the shard", ls,
				func() float64 { return float64(stats().MailboxBacklog) })
			reg.SampleGauge("ab_shard_port_backlog", "frames queued in remote-NIC proxies the shard owns", ls,
				func() float64 { return float64(stats().PortBacklog) })
		}
	} else {
		sim := n.Sim
		ls := base.With("shard", "0")
		reg.SampleGauge("ab_engine_shards", "shard engines this net runs on", base,
			func() float64 { return 1 })
		// Serial engines quiesce too (each Run end); the planes' hook
		// counts them so the family exists at any shard count. It counts
		// before it publishes, so a publish samples a count that already
		// includes the point being published — matching the coordinator,
		// which increments before its quiesce callbacks.
		reg.SampleCounter("ab_engine_quiesce_total", "quiescent points reached by the engine", base,
			func() float64 { return float64(n.quiesces) })
		// Help texts match the sharded branch exactly: the hub serves
		// one HELP line per family, whichever net registered it.
		reg.SampleGauge("ab_shard_clock_seconds", "engine virtual clock (aligned at quiescence)", ls,
			func() float64 { return sim.Now().Seconds() })
		reg.SampleCounter("ab_shard_events_total", "events executed by the engine", ls,
			func() float64 { return float64(sim.Executed()) })
		reg.SampleGauge("ab_shard_events_per_second", "wall-clock event rate since the previous publish", ls,
			eventsPerSecond(sim.Executed))
		reg.SampleGauge("ab_shard_heap_depth", "events pending in the engine's heap", ls,
			func() float64 { return float64(sim.QueueLen()) })
	}

	for i, b := range n.bridges {
		shard := 0
		if n.Plan != nil {
			shard = n.Plan.BridgeShard(BridgeID(i))
		}
		b.Instrument(reg, base.
			With("bridge", b.Name).
			With("shard", strconv.Itoa(shard)))
	}

	// Per-segment fault counters exist only when a fault plan was
	// applied: a clean net has nothing to count and keeps its scrape
	// output identical to the pre-fault plane.
	if n.faultPlan != nil {
		for _, seg := range n.segments {
			seg := seg
			ls := base.With("segment", seg.Name)
			reg.SampleCounter("ab_fault_dropped_frames_total", "frames destroyed on the segment by the fault plane", ls,
				func() float64 { return float64(seg.FaultDrops) })
			reg.SampleCounter("ab_fault_corrupted_frames_total", "frames delivered corrupt and discarded by receivers", ls,
				func() float64 { return float64(seg.FaultCorrupts) })
			reg.SampleCounter("ab_fault_duplicated_frames_total", "duplicate deliveries injected on the segment", ls,
				func() float64 { return float64(seg.FaultDups) })
			reg.SampleGauge("ab_fault_segment_down", "1 while the segment's medium is cut", ls,
				func() float64 {
					if seg.Down() {
						return 1
					}
					return 0
				})
		}
	}

	if n.tracer != nil {
		n.instrumentTracer(reg, n.tracer)
	}
	// Publish at every quiescent point (serial Run end / coordinator
	// quiescence), and once now so a scraper arriving before the first
	// Run sees the registered series instead of an empty document.
	n.hookQuiescence()
	reg.Publish()
	metrics.DefaultHub.Attach(reg)
	n.metricsReg = reg
	return reg
}

// hookQuiescence registers the planes' one quiescence hook. Both
// EnableMetrics and EnableTracing call it before setting their own
// field, so only the first call registers. At every quiescent point the
// tracer merges before the registry publishes, so the ab_trace_*
// samplers read the window that just closed, whichever plane was
// enabled first.
func (n *Net) hookQuiescence() {
	if n.metricsReg != nil || n.tracer != nil {
		return
	}
	n.Sim.OnQuiesce(func() {
		n.quiesces++
		if n.tracer != nil {
			n.tracer.Flush()
		}
		if n.metricsReg != nil {
			n.metricsReg.Publish()
		}
	})
}

// Metrics returns the net's telemetry registry, or nil when metrics
// were never enabled for this net. Scenario code uses it to instrument
// workloads it creates after Build:
//
//	if reg := net.Metrics(); reg != nil {
//	    stream.Instrument(reg, metrics.Labels{{Name: "net", Value: "x"}, {Name: "flow", Value: "ttcp0"}})
//	}
func (n *Net) Metrics() *metrics.Registry { return n.metricsReg }

// eventsPerSecond builds a stateful sampler: the wall-clock rate of the
// executed counter between consecutive publishes. The value is a
// wall-clock observation (the only deliberately non-deterministic
// instrument), visible only through the metrics plane.
func eventsPerSecond(executed func() uint64) func() float64 {
	var lastEv uint64
	var lastWall time.Time
	return func() float64 {
		now := time.Now() //ab:wallclock-ok the one deliberately wall-clock instrument, visible only via the metrics plane
		ev := executed()
		var rate float64
		if !lastWall.IsZero() {
			if dt := now.Sub(lastWall).Seconds(); dt > 0 {
				rate = float64(ev-lastEv) / dt
			}
		}
		lastEv, lastWall = ev, now
		return rate
	}
}
