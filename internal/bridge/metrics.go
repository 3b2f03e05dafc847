package bridge

import (
	"strconv"

	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
)

// Instrument registers this bridge's observable state into a metrics
// registry under the given base labels (topo adds net/bridge/shard
// identity; the script console adds just the bridge name).
//
// Every instrument is a sampler or a dynamic family: the frame path is
// untouched, and values are read from the bridge's existing counters at
// quiescent points only — which is why an instrumented run is
// byte-identical to an uninstrumented one.
func (b *Bridge) Instrument(reg *metrics.Registry, ls metrics.Labels) {
	s := &b.Stats

	counter := func(name, help string, v *uint64) {
		reg.SampleCounter(name, help, ls, func() float64 { return float64(*v) })
	}
	counter("ab_bridge_frames_in_total", "frames received on any port", &s.FramesIn)
	counter("ab_bridge_frames_delivered_total", "frames handed to some handler", &s.FramesDelivered)
	counter("ab_bridge_frames_sent_total", "frames transmitted", &s.FramesSent)
	counter("ab_bridge_no_handler_drops_total", "frames no switchlet claimed", &s.NoHandlerDrops)
	counter("ab_bridge_input_suppressed_total", "frames suppressed on blocked ports", &s.InputSuppressed)
	counter("ab_bridge_output_blocked_total", "sends dropped due to port blocking", &s.OutputBlocked)
	counter("ab_bridge_handler_traps_total", "runtime failures inside switchlet code", &s.HandlerTraps)
	counter("ab_bridge_timer_fires_total", "switchlet timer expirations", &s.TimerFires)
	counter("ab_bridge_crashes_total", "fault-plane crashes of this node", &s.Crashes)
	counter("ab_bridge_restarts_total", "fault-plane cold restarts of this node", &s.Restarts)
	for t := 0; t < len(b.Machine.TierEnters); t++ {
		t := t
		reg.SampleCounter("ab_bridge_vm_tier_enters_total",
			"switchlet frame entries per execution tier (0 naive, 1 quickened)",
			ls.With("tier", strconv.Itoa(t)),
			func() float64 { return float64(b.Machine.TierEnters[t]) })
	}
	reg.SampleCounter("ab_bridge_txq_drops_total", "frames lost to transmit-queue overflow", ls,
		func() float64 { return float64(b.TxQueueDrops()) })
	reg.SampleCounter("ab_bridge_fault_drops_total", "frames destroyed at this node's ports by the fault plane", ls,
		func() float64 {
			var v uint64
			for _, p := range b.ports {
				v += p.FaultDrops
			}
			return float64(v)
		})

	reg.SampleCounter("ab_bridge_vm_time_ns_total", "virtual time spent in switchlet execution", ls,
		func() float64 { return float64(s.VMTime) })
	reg.SampleCounter("ab_bridge_kernel_time_ns_total", "virtual time spent in kernel crossings", ls,
		func() float64 { return float64(s.KernelTime) })
	reg.SampleGauge("ab_bridge_cpu_utilization", "node CPU busy fraction of elapsed virtual time (0-1)", ls,
		func() float64 { return netsim.Utilization(b.cpu.Busy, netsim.Duration(b.sim.Now())) })
	reg.SampleGauge("ab_bridge_cpu_runq_depth", "frames and timers queued for the node CPU, the one in service included", ls,
		func() float64 { return float64(b.cpu.Backlog()) })
	reg.SampleGauge("ab_bridge_tx_queue_depth", "frames backed up across the bridge's transmit queues", ls,
		func() float64 {
			depth := 0
			for _, p := range b.ports {
				depth += p.TxQueueLen()
			}
			return float64(depth)
		})

	m := b.Manager()
	lc := func(name, help string, field func(LifecycleStats) uint64) {
		reg.SampleCounter(name, help, ls, func() float64 { return float64(field(m.lifecycle)) })
	}
	lc("ab_bridge_switchlet_installs_total", "successful switchlet installs",
		func(l LifecycleStats) uint64 { return l.Installs })
	lc("ab_bridge_switchlet_uninstalls_total", "successful switchlet uninstalls",
		func(l LifecycleStats) uint64 { return l.Uninstalls })
	lc("ab_bridge_switchlet_upgrades_total", "upgrade attempts that reached handoff",
		func(l LifecycleStats) uint64 { return l.Upgrades })
	lc("ab_bridge_switchlet_commits_total", "upgrades whose validation passed",
		func(l LifecycleStats) uint64 { return l.Commits })
	lc("ab_bridge_switchlet_rollbacks_total", "upgrades returned to the old switchlet",
		func(l LifecycleStats) uint64 { return l.Rollbacks })

	// The installed set changes over a run (installs, upgrades,
	// uninstalls, cold restarts), so the version inventory is a dynamic
	// family re-enumerated at every publish. Its label sets are built
	// again only when the set has changed since the last publish. The
	// value is the install instant in virtual seconds.
	type info struct {
		ls metrics.Labels
		at float64
	}
	var infos []info
	gen := ^uint64(0)
	reg.Dynamic("ab_bridge_switchlet_info", "installed switchlet versions (value: install time, virtual seconds)",
		func(emit func(metrics.Labels, float64)) {
			if gen != m.gen {
				gen, infos = m.gen, infos[:0]
				for _, inst := range m.List() {
					infos = append(infos, info{ls.With("module", inst.Manifest.Name).With("version", inst.Manifest.Version.String()),
						inst.At.Seconds()})
				}
			}
			for _, in := range infos {
				emit(in.ls, in.at)
			}
		})
}
