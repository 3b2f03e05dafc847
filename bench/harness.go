package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/topo"
)

// minSlices is the least number of timed Sim.Run calls a window is cut
// into: enough samples for a lower decile with four samples beyond it.
const minSlices = 40

// undisturbed is the quantile over a window's slices that host_ns_per_op
// and cpu_ns_per_op report, and over the set-up repetitions that setup_s
// reports. The host's noise is one-sided and comes in
// bursts of a second or so (other tenants, stolen CPU), slowing a fifth to
// a half of the slices; over ten runs of one commit the slices' median
// moved by 9-14% of itself between the quartiles, their lower decile by
// 4-5%. The lower decile is the cost of an op when the host leaves the
// simulator alone, which is the property of the code a change can move.
const undisturbed = 0.10

// instance is one built workload, ready to be driven slice by slice. The
// harness owns all timing; an instance only knows how to advance the
// simulator through its public API.
type instance struct {
	net *topo.Net
	// segs lists every segment of the net (topo exposes them by id only).
	segs []topo.SegmentID
	// warm brings the freshly built net to steady state and starts the
	// load; it is the second half of set-up.
	warm func()
	// step advances the simulation by one slice of fixed simulated work
	// and returns the events executed; it is the only timed call.
	step func() uint64
	// between runs untimed before every slice: learning-table refresh,
	// materialising the next slice's inputs.
	between func()
	// stop ends load generation so in-flight work can settle before the
	// failure count is taken.
	stop func()
	// dispatchOps selects the op unit: switchlet dispatches (stp-churn)
	// instead of frames accepted by their destination host.
	dispatchOps bool
	// check verifies workload-specific outputs after the window settled.
	check func() []check
	// close, when set, releases process-wide registrations of the net.
	close func()
}

// check is one verified output; the run is correct only if all pass.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Indexes into counters: every public counter the harness reads at a
// slice boundary, summed over the net, plus the process's own meters.
const (
	cOps = iota
	cHostOut
	cHostIn
	cFramesIn
	cDelivered
	cTimerFires
	cTraps
	cNoHandler
	cCacheHits
	cCacheMiss
	cSteps
	cSimAlloc
	cTier0
	cTier1
	cTier2
	cSegFrames
	cNicRx
	cTxDrops
	cVirtualNs
	cCPUNs
	cMallocs
	cAllocBytes
	cGCCycles
	cGCPauseNs
	nCounters
)

type counters [nCounters]uint64

// engines returns the distinct simulation engines of a net in shard
// order: the serial engine, or each shard engine reached through the
// bridges assigned to it.
func engines(n *topo.Net) []*netsim.Sim {
	if n.Plan == nil {
		return []*netsim.Sim{n.Sim}
	}
	byShard := make([]*netsim.Sim, n.Plan.Shards)
	for i, b := range n.Bridges() {
		byShard[n.Plan.BridgeShard(topo.BridgeID(i))] = b.Sim()
	}
	var out []*netsim.Sim
	for _, e := range byShard {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

func (in *instance) read() counters {
	var c counters
	for _, h := range in.net.Hosts() {
		c[cHostOut] += h.FramesOut
		c[cHostIn] += h.FramesIn
	}
	for _, b := range in.net.Bridges() {
		s := &b.Stats
		c[cFramesIn] += s.FramesIn
		c[cDelivered] += s.FramesDelivered
		c[cTimerFires] += s.TimerFires
		c[cTraps] += s.HandlerTraps
		c[cNoHandler] += s.NoHandlerDrops
		c[cCacheHits] += s.FlowCacheHits
		c[cCacheMiss] += s.FlowCacheMisses
		c[cSteps] += b.Machine.Steps
		c[cSimAlloc] += b.Machine.AllocBytes
		for t, n := range b.Machine.TierEnters {
			c[cTier0+t] += n
		}
		c[cTxDrops] += b.TxQueueDrops()
	}
	for _, id := range in.segs {
		seg := in.net.Segment(id)
		c[cSegFrames] += seg.Frames
		for _, nic := range seg.NICs() {
			c[cNicRx] += nic.RxFrames
			c[cTxDrops] += nic.TxDrops
		}
	}
	c[cOps] = c[cHostIn]
	if in.dispatchOps {
		c[cOps] = c[cDelivered] + c[cTimerFires]
	}
	c[cVirtualNs] = uint64(in.net.Sim.Now())
	c[cCPUNs] = cpuTimeNs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes] = ms.Mallocs, ms.TotalAlloc
	c[cGCCycles], c[cGCPauseNs] = uint64(ms.NumGC), ms.PauseTotalNs
	return c
}

// cpuTimeNs is the process's user+system CPU time.
func cpuTimeNs() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one timed window measured: per-slice host times and the
// counter deltas summed over the timed slices only.
type window struct {
	slices   int
	nsPerOp  []float64 // host time per op, one per slice that had ops
	cpuPerOp []float64 // CPU time per op, likewise
	wallNs   int64
	events   uint64
	d        counters // after minus before, summed over slices
	depthSum int      // QueueLen summed over engines and slice ends
	depthMax int
	depthN   int
	executed []uint64 // per-engine Executed when the window ended
}

// runWindow drives an instance through minSlices slices, and on until
// budget has been measured when budget is positive. Each slice is one
// "sim.run" span under parent when a recorder is given. mark runs once,
// untimed, after slice minSlices: the point where two runs of the same
// inputs have done the same simulated work whatever their budgets.
func runWindow(in *instance, budget time.Duration, rec *spanRecorder, parent int, mark func(*window)) window {
	var w window
	engs := engines(in.net)
	runtime.GC()
	for w.slices < minSlices || time.Duration(w.wallNs) < budget {
		in.between()
		before := in.read()
		sp := rec.begin("sim.run", parent)
		t0 := time.Now()
		ev := in.step()
		wall := time.Since(t0).Nanoseconds()
		rec.end(sp)
		after := in.read()

		if ops := after[cOps] - before[cOps]; ops > 0 {
			w.nsPerOp = append(w.nsPerOp, float64(wall)/float64(ops))
			w.cpuPerOp = append(w.cpuPerOp, float64(after[cCPUNs]-before[cCPUNs])/float64(ops))
		}
		w.slices++
		w.wallNs += wall
		w.events += ev
		for k := range w.d {
			w.d[k] += after[k] - before[k]
		}
		for _, e := range engs {
			q := e.QueueLen()
			w.depthSum += q
			w.depthN++
			if q > w.depthMax {
				w.depthMax = q
			}
		}
		if w.slices == minSlices {
			mark(&w)
		}
	}
	for _, e := range engs {
		w.executed = append(w.executed, e.Executed())
	}
	return w
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0 is the minimum, q=1 the maximum). xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
