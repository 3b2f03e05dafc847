package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/testbed"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/vm"
	"github.com/switchware/activebridge/internal/workload"
)

// Isolated layer drivers: each pushes the workload's own op shape (frame
// size, fan-out, destination spread, heap depth) through one layer's
// public API and is timed from outside, under a "layer.<module>" span.
// The figures are outside-in estimates: a driver cannot reproduce the
// cache state the layer sees inside the full simulation.

// driverRounds is how many rounds a driver's median is taken over.
const driverRounds = 9

// timeOp returns the median over driverRounds rounds of the host ns one
// call of op takes. The calls per round are sized from a probe so that a
// round lasts about round.
func timeOp(round time.Duration, op func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if el := time.Since(t0); el >= round/8 || n >= 1<<20 {
			n = int(float64(n)*float64(round)/float64(el+1)) + 1
			break
		}
		n *= 4
	}
	runtime.GC()
	rounds := make([]float64, driverRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(rounds)
}

func mac(i int) ethernet.MAC { return ethernet.MAC{0x02, 0xd0, 0, 0, byte(i >> 8), byte(i)} }

// dataLen is the payload a workload's typical frame carries; stp-churn's
// frames are BPDUs, which ride in minimum-size frames.
func (d *workloadDef) dataLen() int {
	if d.frameLen == 0 {
		return ethernet.MinPayload
	}
	return d.frameLen
}

func mustMarshal(dst, src ethernet.MAC, n int) []byte {
	raw, err := (&ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: make([]byte, n)}).Marshal()
	if err != nil {
		panic(err) // sizes are the benchmark's own constants
	}
	return raw
}

// queueOp is schedule+run churn of no-op events over a standing
// population of depth events.
func queueOp(depth int) func() {
	if depth < 1 {
		depth = 1
	}
	sim := netsim.New()
	nop := func() {}
	for i := 0; i < depth; i++ {
		sim.Schedule(netsim.Time(i), nop)
	}
	sim.MaxEvents = 1
	return func() {
		sim.Schedule(sim.Now()+netsim.Time(depth), nop)
		sim.Run(sim.Now() + 1<<40)
	}
}

// wireOp sends one frame from a NIC across a segment with receivers
// other NICs attached, one of which accepts it.
func wireOp(def *workloadDef) func() {
	sim := netsim.New()
	seg := netsim.NewSegment(sim, "lan")
	src := netsim.NewNIC(sim, "src", mac(0))
	seg.Attach(src)
	for i := 1; i <= def.fanout; i++ {
		nic := netsim.NewNIC(sim, fmt.Sprintf("rx%d", i), mac(i))
		nic.SetRecv(func(*netsim.NIC, []byte) {})
		seg.Attach(nic)
	}
	raw := mustMarshal(mac(1), mac(0), def.dataLen())
	return func() {
		src.Send(raw)
		sim.RunAll()
	}
}

func codecOp(def *workloadDef) func() {
	fr := ethernet.Frame{Dst: mac(1), Src: mac(0), Type: ethernet.TypeTest, Payload: make([]byte, def.dataLen())}
	var back ethernet.Frame
	return func() {
		raw, err := fr.Marshal()
		if err == nil {
			err = back.Unmarshal(raw)
		}
		if err != nil {
			panic(err)
		}
	}
}

// bridgeDriver is one bridge configuration fed the workload's op shape.
// op performs one workload op; events and ops count what it caused.
type bridgeDriver struct {
	op      func()
	events  uint64
	ops     uint64
	steps0  uint64 // VM steps before the counted ops
	bridges []*bridge.Bridge
}

// reset starts the counts over, once the driver is warm.
func (d *bridgeDriver) reset() { d.events, d.ops, d.steps0 = 0, 0, d.steps() }

func (d *bridgeDriver) steps() uint64 {
	var n uint64
	for _, b := range d.bridges {
		n += b.Machine.Steps
	}
	return n
}

// newBridgeDriver builds the bridge-layer driver for a workload at the
// given switchlet tier. For frame workloads it is one learning bridge of
// the given kind between two bare NICs, destinations drawn over the
// workload's MAC spread (a constant, or the LRU-stack stream, which
// reproduces the flow-cache hit ratio). For stp-churn it is a pair of
// spanning-tree bridges exchanging hellos, one op per dispatch.
func newBridgeDriver(def *workloadDef, kind topo.BridgeKind, optLevel int) (*bridgeDriver, error) {
	saved := bridge.DefaultOptLevel
	bridge.DefaultOptLevel = optLevel
	defer func() { bridge.DefaultOptLevel = saved }()

	g := topo.New("driver")
	d := &bridgeDriver{}
	if def.frameLen == 0 {
		lan := g.AddSegment("lan")
		for i := 0; i < 2; i++ {
			g.Link(g.AddBridge(fmt.Sprintf("b%d", i+1), topo.STPBridge, 1), lan)
		}
		net, err := g.Build(cost)
		if err != nil {
			return nil, err
		}
		d.bridges = net.Bridges()
		dispatches := func() (n uint64) {
			for _, b := range d.bridges {
				n += b.Stats.FramesDelivered + b.Stats.TimerFires
			}
			return n
		}
		net.Sim.Run(net.Sim.Now().Add(60 * netsim.Second)) // converge first
		d.op = func() {
			before := dispatches()
			d.events += net.Sim.Run(net.Sim.Now().Add(2 * netsim.Second)) // one hello period
			d.ops += dispatches() - before
		}
		return d, nil
	}

	a, b := g.AddTap("a", mac(0)), g.AddTap("b", mac(1))
	br := g.AddBridge("br", kind, 2)
	lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
	g.Link(a, lan1)
	g.Link(br, lan1)
	g.Link(b, lan2)
	g.Link(br, lan2)
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	d.bridges = net.Bridges()
	na, nb := net.Tap(a), net.Tap(b)
	nb.Promiscuous = true
	nb.SetRecv(func(*netsim.NIC, []byte) {})
	// Teach the bridge every destination on the far port.
	frames := make([][]byte, def.dstMACs)
	for i := range frames {
		nb.Send(mustMarshal(mac(0), mac(1+i), ethernet.MinPayload))
		net.Sim.RunAll()
		frames[i] = mustMarshal(mac(1+i), mac(0), def.frameLen)
	}
	order := make([]uint16, 4096)
	if def.dstMACs > 1 {
		gen := newLocalityGen(1, def.dstMACs)
		for i := range order {
			order[i] = gen.next().dst
		}
	}
	next := 0
	d.op = func() {
		na.Send(frames[order[next%len(order)]])
		next++
		d.events += net.Sim.RunAll()
		d.ops++
	}
	return d, nil
}

// endpointBurst is how many frames one endpointOp call streams.
const endpointBurst = 256

// endpointOp streams a burst of frames between two hosts on one LAN with
// no bridge: SendTest to host delivery, the floor under any forwarding
// workload.
func endpointOp(def *workloadDef) func() {
	tb := testbed.New(testbed.Direct, cost)
	return func() {
		tt := workload.NewTtcp(tb.H1, tb.H2, def.frameLen, int64(endpointBurst*def.frameLen))
		tt.Run(tb.Sim.Now().Add(10 * netsim.Second))
		if !tt.Done() {
			panic("bench: direct ttcp burst did not finish")
		}
	}
}

// coldVersion makes each cold install miss the process-wide object
// cache, whose key includes the manifest version.
var coldVersion int

// installOp installs the learning manifest on a fresh bridge; cold gives
// every install a version the object cache has not seen.
func installOp(cold bool) func() {
	sim := netsim.New()
	return func() {
		b := bridge.New(sim, "drv", 1, 2, cost)
		m := switchlets.LearningManifest()
		if cold {
			coldVersion++
			m.Version.Patch = 1_000_000 + coldVersion
		}
		if _, err := b.Manager().Install(m); err != nil {
			panic(err)
		}
	}
}

// compileTimes compiles, verifies and optimises the six bundled
// switchlets once and returns the three totals in host ns. Verification
// and optimisation run on a decoded copy: the compiler's own object has
// been verified already, and both results are cached per object.
func compileTimes() (compile, verify, optimize float64, err error) {
	b := bridge.New(netsim.New(), "drv", 1, 2, cost)
	for _, m := range switchlets.Builtins() {
		t0 := time.Now()
		obj, _, cerr := vm.CompileLevel(m.Name, m.Source, b.Loader.SigEnv(), 0)
		t1 := time.Now()
		if cerr != nil {
			return 0, 0, 0, fmt.Errorf("compile %s: %w", m.Name, cerr)
		}
		fresh, derr := vm.DecodeObject(obj.Encode())
		if derr != nil {
			return 0, 0, 0, fmt.Errorf("decode %s: %w", m.Name, derr)
		}
		t2 := time.Now()
		_, verr := vm.VerifyObject(fresh)
		t3 := time.Now()
		if verr != nil {
			return 0, 0, 0, fmt.Errorf("verify %s: %w", m.Name, verr)
		}
		vm.OptimizeObject(fresh, true)
		t4 := time.Now()
		compile += float64(t1.Sub(t0))
		verify += float64(t3.Sub(t2))
		optimize += float64(t4.Sub(t3))
	}
	return compile, verify, optimize, nil
}

// flushTime times Tracer.Flush over n sampled events on a tracer of its
// own, in host ns.
func flushTime(n int) float64 {
	rounds := make([]float64, driverRounds)
	for r := range rounds {
		tr := tracing.New(tracing.Config{})
		e := tr.Engine(0)
		for i := 0; i < n; i++ {
			e.Emit(tracing.Event{VT: int64(i), Trace: 1<<63 | 1, Kind: tracing.KindRx, Node: "drv"})
		}
		t0 := time.Now()
		tr.Flush()
		rounds[r] = float64(time.Since(t0).Nanoseconds())
	}
	return median(rounds)
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// layerTimes runs every isolated driver for a workload, each under its
// own span, and returns the per-layer time metrics.
func layerTimes(def *workloadDef, tm *measured, round time.Duration, rec *spanRecorder, parent int) (map[string]float64, error) {
	timed := func(op func()) float64 { return timeOp(round, op) }
	out := map[string]float64{}
	span := func(name string, fn func()) {
		sp := rec.begin("layer."+name, parent)
		fn()
		rec.end(sp)
	}
	frames := def.frameLen > 0

	depth := tm.w.depthSum / tm.w.depthN
	span("netsim.queue", func() { out["netsim.queue_ns_per_event"] = timed(queueOp(depth)) })
	span("netsim.wire", func() { out["netsim.wire_ns_per_frame"] = timed(wireOp(def)) })
	span("ethernet.codec", func() { out["ethernet.codec_ns_per_frame"] = timed(codecOp(def)) })
	if frames {
		span("workload.endpoint", func() { out["workload.endpoint_ns_per_frame"] = timed(endpointOp(def)) / endpointBurst })
	}

	// The bridge at each tier, and the native bridge as the floor, in
	// interleaved rounds whose order rotates, so that drift in the host's
	// speed lands on every configuration alike.
	var err error
	span("bridge.forward", func() {
		type cfg struct {
			kind  topo.BridgeKind
			level int
		}
		cfgs := []cfg{{topo.LearningBridge, 0}, {topo.LearningBridge, 1}, {topo.LearningBridge, 2}}
		if frames {
			cfgs = append(cfgs, cfg{topo.NativeLearningBridge, bridge.DefaultOptLevel})
		}
		drivers := make([]*bridgeDriver, len(cfgs))
		samples := make([][]float64, len(cfgs))
		for i, c := range cfgs {
			if drivers[i], err = newBridgeDriver(def, c.kind, c.level); err != nil {
				return
			}
			for w := 0; w < 64; w++ { // past the translated tier's hot threshold
				drivers[i].op()
			}
			drivers[i].reset()
		}
		for r := 0; r < driverRounds; r++ {
			for j := range cfgs {
				i := (r + j) % len(cfgs)
				d := drivers[i]
				ops0 := d.ops
				t0 := time.Now()
				for time.Since(t0) < round/2 {
					for k := 0; k < 16; k++ {
						d.op()
					}
				}
				samples[i] = append(samples[i], float64(time.Since(t0).Nanoseconds())/float64(d.ops-ops0))
			}
		}
		native, nativeEvents := 0.0, 0.0
		if frames {
			n := drivers[len(cfgs)-1]
			native, nativeEvents = median(samples[len(cfgs)-1]), float64(n.events)/float64(n.ops)
			out["bridge.native_forward_ns_per_frame"] = native
			// The driver's own heap holds a frame or two, not the
			// workload's standing population.
			out["bridge.self_ns_per_frame"] = native - nativeEvents*timed(queueOp(2))
		}
		for lvl := 0; lvl <= 2; lvl++ {
			out[fmt.Sprintf("vm.ns_per_frame.O%d", lvl)] = median(samples[lvl]) - native
		}
		cur := drivers[bridge.DefaultOptLevel]
		forward := median(samples[bridge.DefaultOptLevel])
		out["bridge.forward_ns_per_frame"] = forward
		out["vm.ns_per_step"] = ratio(forward-native, float64(cur.steps()-cur.steps0)/float64(cur.ops))
	})
	if err != nil {
		return nil, fmt.Errorf("%s: bridge driver: %w", def.name, err)
	}

	span("bridge.install", func() {
		out["bridge.install_cold_ms"] = timed(installOp(true)) / 1e6
		out["bridge.install_cached_ms"] = timed(installOp(false)) / 1e6
	})
	span("vm.compile", func() {
		var c, v, o []float64
		for r := 0; r < 3 && err == nil; r++ {
			var ci, vi, oi float64
			ci, vi, oi, err = compileTimes()
			c, v, o = append(c, ci), append(v, vi), append(o, oi)
		}
		out["vm.compile_ms"], out["vm.verify_ms"], out["vm.optimize_ms"] = median(c)/1e6, median(v)/1e6, median(o)/1e6
	})
	if err != nil {
		return nil, err
	}
	span("topo.partition", func() {
		g := tm.in.net.Graph
		out["topo.partition_ms"] = timed(func() { topo.Partition(g, 2) }) / 1e6
	})
	if tr := tm.in.net.Tracer(); tr != nil {
		span("tracing.flush", func() {
			out["tracing.flush_ms"] = flushTime(len(tr.Transcript())/tm.w.slices) / 1e6
		})
		span("tracing.export", func() {
			var cw countingWriter
			if err = tracing.WriteChromeAll(&cw, []*tracing.Tracer{tr}); err == nil {
				out["tracing.export_bytes"] = float64(cw.n)
			}
		})
	}
	return out, err
}
