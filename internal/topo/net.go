package topo

import (
	"fmt"
	"strings"

	"github.com/switchware/activebridge/internal/baseline"
	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/workload"
)

// Net is a materialized topology: one deterministic simulation plus
// typed handles onto every declared node. A serial Net owns its Sim
// exclusively and is single-threaded; independent Nets share no mutable
// state, which is what lets scenarios run in parallel across cores. A
// sharded Net (Graph.Shards / DefaultShards > 1 and a feasible
// partition) spreads its nodes across shard engines under a
// netsim.Coordinator; Sim is then the coordinator's control engine, and
// driving it (Run, Schedule, the workload helpers) behaves exactly like
// the serial engine — scheduled closures run at global barriers and may
// touch any node.
type Net struct {
	Sim  *netsim.Sim
	Cost netsim.CostModel
	// Graph is the declaration this net was built from.
	Graph *Graph
	// Plan is the shard assignment, nil for a serial build.
	Plan *Plan

	coord *netsim.Coordinator

	// metricsReg is the telemetry registry, non-nil once EnableMetrics
	// ran (see metrics.go).
	metricsReg *metrics.Registry

	// tracer is the causal tracing plane, non-nil once EnableTracing
	// ran (see tracing.go).
	tracer *tracing.Tracer

	// quiesces counts the quiescent points the planes' hook has seen
	// (see hookQuiescence).
	quiesces uint64

	// faultPlan is the fault schedule the net was built with (see
	// fault.go), nil for a clean build.
	faultPlan *fault.Plan

	hosts     []*workload.Host
	bridges   []*bridge.Bridge
	repeaters []*baseline.Repeater
	taps      []*netsim.NIC
	segments  []*netsim.Segment
}

// Shards reports how many shard engines the net runs on (1 for serial).
func (n *Net) Shards() int {
	if n.Plan == nil {
		return 1
	}
	return n.Plan.Shards
}

// shardedLogs buffers per-bridge switchlet log lines during sharded
// execution (each bridge appends single-threaded from its own shard) and
// flushes them to the user sinks at quiescent points, ordered by (time,
// bridge declaration index, per-bridge sequence). The flush order equals
// serial execution order except for lines logged by different bridges at
// the exact same nanosecond.
type shardedLogs struct {
	bridges []*bridgeLog
}

type bridgeLog struct {
	idx     int
	sink    func(at netsim.Time, bridge, msg string)
	entries []logEntry
}

type logEntry struct {
	at     netsim.Time
	bridge string
	msg    string
}

func (l *shardedLogs) sinkFor(idx int, sink func(at netsim.Time, bridge, msg string)) func(at netsim.Time, bridge, msg string) {
	bl := &bridgeLog{idx: idx, sink: sink}
	l.bridges = append(l.bridges, bl)
	return func(at netsim.Time, bridge, msg string) {
		bl.entries = append(bl.entries, logEntry{at: at, bridge: bridge, msg: msg})
	}
}

func (l *shardedLogs) flush() {
	for {
		var best *bridgeLog
		for _, bl := range l.bridges {
			if len(bl.entries) == 0 {
				continue
			}
			if best == nil || bl.entries[0].at < best.entries[0].at ||
				(bl.entries[0].at == best.entries[0].at && bl.idx < best.idx) {
				best = bl
			}
		}
		if best == nil {
			return
		}
		e := best.entries[0]
		best.entries = best.entries[1:]
		best.sink(e.at, e.bridge, e.msg)
	}
}

// Host returns the handle for a declared host.
func (n *Net) Host(id HostID) *workload.Host { return n.hosts[id] }

// Bridge returns the handle for a declared bridge.
func (n *Net) Bridge(id BridgeID) *bridge.Bridge { return n.bridges[id] }

// Repeater returns the handle for a declared repeater.
func (n *Net) Repeater(id RepeaterID) *baseline.Repeater { return n.repeaters[id] }

// Tap returns the bare NIC for a declared tap.
func (n *Net) Tap(id TapID) *netsim.NIC { return n.taps[id] }

// Segment returns the handle for a declared segment.
func (n *Net) Segment(id SegmentID) *netsim.Segment { return n.segments[id] }

// Bridges returns every bridge in declaration order.
func (n *Net) Bridges() []*bridge.Bridge { return n.bridges }

// Hosts returns every host in declaration order.
func (n *Net) Hosts() []*workload.Host { return n.hosts }

// warmProbe is the canonical warm-up payload. Test-stream payloads start
// with a 2-byte big-endian length prefix covering the whole payload
// (workload.Ttcp), so the smallest well-formed segment is exactly the
// prefix describing itself: length 2 = {0x00, 0x02}. Warming with it
// primes learning tables (and any caches) while carrying no application
// data.
var warmProbe = [2]byte{0x00, 0x02}

// WarmProbe returns a fresh copy of the canonical warm-up payload, so
// no caller can mutate the probe every scenario shares.
func WarmProbe() []byte {
	b := warmProbe
	return b[:]
}

// warmSettle is how long each warm-up probe is given to propagate before
// measurement traffic starts (generous for any diameter in the paper's
// testbeds).
const warmSettle = 50 * netsim.Millisecond

// Warm primes the path between two hosts with one WarmProbe in each
// direction, letting the network settle after each, so measurements see
// steady state: learning tables populated, no flooding. Every scenario
// warms through this helper (or ScheduleWarm) so warm-up is identical
// everywhere.
func (n *Net) Warm(a, b HostID) {
	ha, hb := n.hosts[a], n.hosts[b]
	n.Sim.Schedule(n.Sim.Now(), func() {
		_ = ha.SendTest(hb.MAC, WarmProbe())
	})
	n.Sim.Run(n.Sim.Now() + netsim.Time(warmSettle))
	n.Sim.Schedule(n.Sim.Now(), func() {
		_ = hb.SendTest(ha.MAC, WarmProbe())
	})
	n.Sim.Run(n.Sim.Now() + netsim.Time(warmSettle))
}

// ScheduleWarm queues the same probe pair without advancing the clock:
// a→b at the given instant, b→a one tick later. Scenarios warming many
// flows under one clock (scalability) schedule each pair and then run
// one settle window themselves.
func (n *Net) ScheduleWarm(a, b HostID, at netsim.Time) {
	ha, hb := n.hosts[a], n.hosts[b]
	n.Sim.Schedule(at, func() { _ = ha.SendTest(hb.MAC, WarmProbe()) })
	n.Sim.Schedule(at+1, func() { _ = hb.SendTest(ha.MAC, WarmProbe()) })
}

// Fingerprint renders the determinism-relevant end state of the whole
// net: virtual time plus every bridge's interpreter and frame counters,
// in declaration order. If any optimization or refactor changes
// scheduling order, interpreter accounting or frame handling anywhere in
// the network, some field here moves. All quantities are virtual-time,
// identical on any machine and any level of runner parallelism.
func (n *Net) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%d", int64(n.Sim.Now()))
	for _, b := range n.bridges {
		fmt.Fprintf(&sb, " %s[steps=%d alloc=%d in=%d sent=%d vm=%d kern=%d]",
			b.Name, b.Machine.Steps, b.Machine.AllocBytes,
			b.Stats.FramesIn, b.Stats.FramesSent,
			int64(b.Stats.VMTime), int64(b.Stats.KernelTime))
	}
	return sb.String()
}
