package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/tracing"
)

// result is everything one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Checks    []check            `json:"checks"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Slices    int                `json:"slices"` // timed samples behind host_ns_per_op
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// simDefaults are the process-wide simulator knobs a workload may flip
// and must put back.
type simDefaults struct {
	optLevel, shards               int
	metrics, tracing, flowCacheOff bool
}

func readSimDefaults() simDefaults {
	return simDefaults{bridge.DefaultOptLevel, topo.DefaultShards, metrics.Enabled(), tracing.Enabled(), bridge.DisableFlowCache}
}

// settle is how long in-flight frames get to arrive once the load stopped.
const settle = 2 * netsim.Second

// measured is one window with its set-up and the state it settled in.
type measured struct {
	in      *instance
	setupNs []float64 // build+warm, one per repetition
	buildNs []float64
	warmNs  []float64
	w       window
	final   counters // totals after the load stopped and settled
	checks  []check
	// State after slice minSlices, where runs of the same inputs have
	// done the same simulated work whatever their budgets.
	markFP            string
	markOps, markVirt uint64
}

// measure sets a workload up (repeatedly if repeatSetup, keeping the
// last), runs one window of at least minSlices slices and budget host
// time, then stops the load, lets it settle and runs the workload's checks.
func measure(def *workloadDef, cfg runCfg, budget time.Duration, repeatSetup bool, rec *spanRecorder, parent int) (*measured, error) {
	m := &measured{}
	// Set-up is short next to the window, so it is repeated, and like the
	// window's slices reported by its lower decile: at least 5 times, and
	// up to 100 while they fit in 0.3 s of host time.
	for total := 0.0; ; {
		if m.in != nil && m.in.close != nil {
			m.in.close()
		}
		runtime.GC()
		sp := rec.begin("topo.build", parent)
		t0 := time.Now()
		in, err := def.build(cfg)
		t1 := time.Now()
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", def.name, err)
		}
		sp = rec.begin("topo.warm", parent)
		in.warm()
		t2 := time.Now()
		rec.end(sp)
		m.in = in
		m.buildNs = append(m.buildNs, float64(t1.Sub(t0)))
		m.warmNs = append(m.warmNs, float64(t2.Sub(t1)))
		m.setupNs = append(m.setupNs, float64(t2.Sub(t0)))
		total += float64(t2.Sub(t0))
		if n := len(m.setupNs); !repeatSetup || n >= 100 || n >= 5 && total >= 3e8 {
			break
		}
	}
	m.w = runWindow(m.in, budget, rec, parent, func(w *window) {
		m.markFP, m.markOps, m.markVirt = m.in.net.Fingerprint(), w.d[cOps], w.d[cVirtualNs]
	})
	m.in.stop()
	sim := m.in.net.Sim
	sim.Run(sim.Now().Add(settle))
	m.final = m.in.read()
	m.checks = m.in.check()
	if m.in.close != nil {
		m.in.close()
	}
	return m, nil
}

func (m *measured) hostNsPerOp() float64 { return quantile(m.w.nsPerOp, undisturbed) }
func (m *measured) cpuNsPerOp() float64  { return quantile(m.w.cpuPerOp, undisturbed) }

// attempts counts ops attempted and failed over the instance's whole
// life, warm-up included: every frame a host sent must have been accepted
// by its destination host, no transmit queue may have overflowed and no
// switchlet handler may have trapped.
func (m *measured) attempts() (attempted, failed uint64) {
	f := &m.final
	failed = f[cTraps] + f[cTxDrops]
	if m.in.dispatchOps {
		return f[cOps] + f[cTraps], failed
	}
	lost := f[cHostOut] - f[cHostIn]
	if f[cHostIn] > f[cHostOut] {
		lost = f[cHostIn] - f[cHostOut] // a duplicate delivery is a failure too
	}
	return f[cHostOut], failed + lost
}

// runOpts is how one workload is to be run.
type runOpts struct {
	seed   uint64
	scale  float64       // multiplies every slice's simulated work
	budget time.Duration // host time to measure; 0 means exactly minSlices slices
	rec    *spanRecorder // non-nil adds the traced pass and the per-layer metrics
	// smoke runs one set-up per window and the shortest driver rounds: it
	// exercises every check and metric, and measures nothing.
	smoke bool
}

// runWorkload measures one workload: an untraced window for the
// end-to-end metrics, the reference window if the workload has one, and,
// when tracing, a second window at a tenth of the scale under spans
// followed by the isolated layer drivers.
func runWorkload(def *workloadDef, o runOpts) (*result, error) {
	guard := readSimDefaults()
	traced := o.rec != nil
	budget := o.budget
	if traced {
		budget /= 2 // the other half goes to the traced window and the drivers
	}
	cfg := def.cfg(o.seed, o.scale)
	m, err := measure(def, cfg, budget, !o.smoke, nil, -1)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: def.name, Checks: m.checks, Slices: m.w.slices}
	res.Attempted, res.Failed = m.attempts()
	d := &m.w.d
	ops := float64(d[cOps])
	res.EndToEnd = map[string]float64{
		"setup_s":            quantile(m.setupNs, undisturbed) / 1e9,
		"host_ns_per_op":     m.hostNsPerOp(),
		"cpu_ns_per_op":      m.cpuNsPerOp(),
		"mallocs_per_op":     ratio(float64(d[cMallocs]), ops),
		"alloc_bytes_per_op": ratio(float64(d[cAllocBytes]), ops),
		"sim_ops_per_sim_s":  ratio(ops, float64(d[cVirtualNs])/1e9),
		"op_fail_ratio":      ratio(float64(res.Failed), float64(res.Attempted)),
	}
	res.Checks = append(res.Checks,
		check{Name: "no failed op", OK: res.Failed == 0 && res.Attempted > 0, Detail: fmt.Sprintf("%d of %d", res.Failed, res.Attempted)},
		check{Name: "slices with ops", OK: len(m.w.nsPerOp) >= minSlices, Detail: fmt.Sprintf("%d of %d", len(m.w.nsPerOp), m.w.slices)})

	// The reference runs the same inputs with one simulator knob flipped
	// back; its first minSlices slices must match this run's exactly.
	var ref *measured
	if def.reference != "" {
		if ref, err = measure(findWorkload(def.reference), cfg, 0, false, nil, -1); err != nil {
			return nil, err
		}
		res.Checks = append(res.Checks,
			check{Name: "fingerprint equals " + def.reference, OK: m.markFP == ref.markFP},
			check{Name: "sim_ops_per_sim_s equals " + def.reference, OK: m.markOps == ref.markOps && m.markVirt == ref.markVirt,
				Detail: fmt.Sprintf("%d ops in %d ns, reference %d in %d", m.markOps, m.markVirt, ref.markOps, ref.markVirt)})
	}

	if traced {
		o.rec.workload = def.name
		root := o.rec.begin(def.name, -1)
		tm, err := measure(def, def.cfg(o.seed, o.scale/10), o.budget/20, false, o.rec, root)
		if err != nil {
			return nil, err
		}
		round := 20 * time.Millisecond // one round of an isolated driver
		if o.smoke {
			round = 100 * time.Microsecond
		}
		res.PerLayer, err = layerTimes(def, tm, round, o.rec, root)
		if err != nil {
			return nil, err
		}
		o.rec.end(root)
		for _, c := range tm.checks {
			c.Name = "traced: " + c.Name
			res.Checks = append(res.Checks, c)
		}
		countMetrics(res, m, tm, ref)
	}

	if now := readSimDefaults(); now != guard {
		return nil, fmt.Errorf("%s: simulator defaults not restored: %+v, were %+v", def.name, now, guard)
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// countMetrics adds the per-layer metrics that are counts read from
// public counters (over the traced window tm) or ratios between windows
// (m is the untraced window, ref the reference window if there is one).
func countMetrics(res *result, m, tm, ref *measured) {
	out := res.PerLayer
	d := &tm.w.d
	ops := float64(d[cOps])
	per := func(k int) float64 { return ratio(float64(d[k]), ops) }
	net := tm.in.net

	out["netsim.events_per_op"] = ratio(float64(tm.w.events), ops)
	out["netsim.queue_depth_mean"] = ratio(float64(tm.w.depthSum), float64(tm.w.depthN))
	out["netsim.queue_depth_max"] = float64(tm.w.depthMax)
	out["netsim.queue_share"] = ratio(out["netsim.events_per_op"]*out["netsim.queue_ns_per_event"], m.hostNsPerOp())
	out["netsim.segment_frames_per_op"] = per(cSegFrames)
	out["netsim.nic_rx_per_op"] = per(cNicRx)
	out["netsim.tx_drops"] = float64(tm.final[cTxDrops])
	if net.Plan != nil {
		var sum, max float64
		for _, n := range tm.w.executed {
			sum += float64(n)
			if float64(n) > max {
				max = float64(n)
			}
		}
		out["netsim.shard_events_imbalance"] = ratio(max, sum/float64(len(tm.w.executed)))
		out["netsim.shard_cut_segments"] = float64(net.Plan.Cuts(net.Graph))
		out["netsim.shard_speedup"] = ratio(ref.hostNsPerOp(), m.hostNsPerOp())
		out["netsim.shard_cpu_ratio"] = ratio(m.cpuNsPerOp(), ref.cpuNsPerOp())
	}

	out["bridge.frames_in_per_op"] = per(cFramesIn)
	out["bridge.flow_cache_hit_ratio"] = ratio(float64(d[cCacheHits]), float64(d[cCacheHits]+d[cCacheMiss]))
	out["bridge.timer_fires_per_op"] = per(cTimerFires)
	out["bridge.handler_traps"] = float64(tm.final[cTraps])
	out["bridge.no_handler_drops"] = float64(tm.final[cNoHandler])

	out["vm.steps_per_op"] = per(cSteps)
	out["vm.sim_alloc_bytes_per_op"] = per(cSimAlloc)
	enters := float64(d[cTier0] + d[cTier1] + d[cTier2])
	for t := 0; t < 3; t++ {
		out[fmt.Sprintf("vm.tier_enter_share.O%d", t)] = ratio(float64(d[cTier0+t]), enters)
	}

	out["workload.frames_sent"] = float64(tm.final[cHostOut])
	out["workload.frames_delivered"] = float64(tm.final[cHostIn])

	out["topo.build_ms"] = quantile(m.buildNs, undisturbed) / 1e6
	out["topo.warm_ms"] = quantile(m.warmNs, undisturbed) / 1e6
	out["topo.shards_actual"] = float64(net.Shards())

	if tr := net.Tracer(); tr != nil {
		out["tracing.overhead_ratio"] = ratio(m.hostNsPerOp(), ref.hostNsPerOp())
		out["tracing.events_recorded"] = float64(len(tr.Transcript()))
		out["tracing.dropped"] = float64(tr.Dropped())
	}
	if reg := net.Metrics(); reg != nil {
		out["metrics.series_count"] = float64(len(reg.Snapshot().Series))
	}

	if tm.in.dispatchOps {
		out["switchlets.stp_roots_final"] = float64(stpRoots(net))
		out["switchlets.stp_blocked_ports_final"] = float64(blockedPorts(net))
	}

	out["harness.slices"] = float64(res.Slices)
	out["harness.host_ns_per_op_p50"] = median(m.w.nsPerOp)
	out["harness.host_ns_per_op_p90"] = quantile(m.w.nsPerOp, 0.9)
	out["harness.gc_cycles"] = float64(m.w.d[cGCCycles])
	out["harness.gc_pause_ms"] = float64(m.w.d[cGCPauseNs]) / 1e6
	out["harness.trace_overhead_ratio"] = ratio(tm.hostNsPerOp(), m.hostNsPerOp())
	out["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out["harness.op_fail_ratio"] = res.EndToEnd["op_fail_ratio"]
	if ref != nil { // the base of shard_speedup, shard_cpu_ratio and tracing.overhead_ratio
		out["harness.reference_host_ns_per_op"] = ref.hostNsPerOp()
		out["harness.reference_cpu_ns_per_op"] = ref.cpuNsPerOp()
	}

	// A metric that does not apply to this workload reads 0.
	for _, md := range perLayer {
		if _, ok := out[md.Name]; !ok {
			out[md.Name] = 0
		}
	}
}
