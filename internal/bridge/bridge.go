// Package bridge implements the Active Bridge node: a simulated network
// element whose forwarding behaviour is supplied entirely by dynamically
// loaded switchlets (paper §5). The runtime provides:
//
//   - the switchlet loader (vm.Loader) with the thinned environment
//     installed (internal/env);
//   - the frame pump: NIC receive -> demultiplexer -> handler, with the
//     Figure 5 cost pipeline charged to the node's CPU (kernel crossing,
//     VM interpretation or native dispatch, kernel send path);
//   - destination-MAC registrations (how the spanning tree switchlet
//     claims the All Bridges multicast address) and the default handler
//     (how the dumb bridge and then the learning bridge claim the data
//     path, each replacing its predecessor);
//   - named periodic timers and one-shot callbacks for protocol machinery;
//   - the network switchlet loader: Ethernet -> minimal IPv4 -> minimal
//     UDP -> write-only TFTP (paper §5.2), so new switchlets arrive over
//     the simulated LAN.
//
// A bridge with no switchlets loaded forwards nothing: behaviour is code,
// and the code is loaded.
package bridge

import (
	"fmt"
	"unsafe"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/vm"
)

// FrameHandler is a registered packet processor: either a switchlet
// function (VM) or a native-code switchlet (the paper's envisioned
// native-compilation optimization, used here as an ablation baseline).
type FrameHandler struct {
	VM     vm.Value
	Native func(data []byte, inPort int)
	// Name identifies the handler in logs and stats.
	Name string
}

func (h FrameHandler) empty() bool { return h.VM == nil && h.Native == nil }

type timerState struct {
	name   string
	period netsim.Duration
	fn     vm.Value
	native func()
	gen    uint64
	// fire is the timer's event callback, built once at install: every
	// re-arm schedules the same func value.
	fire func()
}

type pendingSend struct {
	port int
	data []byte
	ctl  bool
}

// Stats aggregates the node's observable behaviour.
type Stats struct {
	FramesIn        uint64
	FramesDelivered uint64 // frames handed to some handler
	FramesSent      uint64
	InputSuppressed uint64 // arrived on a blocked port, no dst handler
	OutputBlocked   uint64 // sends dropped due to port blocking
	NoHandlerDrops  uint64 // no switchlet claimed the frame
	HandlerTraps    uint64 // runtime failures inside switchlet code
	FlowCacheHits   uint64 // always 0: stub for frozen bench/harness.go, see DisableFlowCache
	FlowCacheMisses uint64 // always 0: stub for frozen bench/harness.go, see DisableFlowCache
	TimerFires      uint64
	Crashes         uint64 // fault-plane crashes of this node
	Restarts        uint64 // fault-plane cold restarts of this node
	VMTime          netsim.Duration
	KernelTime      netsim.Duration
}

// PathSample is the per-stage cost decomposition of one forwarded frame
// (paper Figure 5 / §7.2 instrumentation).
type PathSample struct {
	When       netsim.Time
	FrameLen   int
	KernelRecv netsim.Duration
	Exec       netsim.Duration
	KernelSend netsim.Duration
	Sends      int
}

// Bridge is one active network element.
type Bridge struct {
	Name string

	sim  *netsim.Sim
	cost netsim.CostModel
	cpu  *netsim.CPU
	mac  ethernet.MAC

	ports   []*netsim.NIC
	blocked []bool

	Machine *vm.Machine
	Loader  *vm.Loader
	Funcs   *env.FuncRegistry

	// manager is the lazily created switchlet lifecycle manager.
	manager *Manager

	defaultHandler FrameHandler
	dstHandlers    map[ethernet.MAC]FrameHandler
	timers         map[string]*timerState

	inDispatch   bool
	pendingSends []pendingSend
	spawnQueue   []vm.Value
	// lastVMCost is the metered cost of the most recent VM dispatch.
	lastVMCost netsim.Duration

	// sendBufs is a free-list of pendingSend buffers; each dispatch
	// borrows one and returns it after its sends are emitted.
	sendBufs [][]pendingSend
	// doneQueue holds collected send lists awaiting their CPU completion.
	// CPU completions fire in submission order (the CPU is a FIFO
	// resource), so every dispatch — frame, timer, one-shot, spawn — uses
	// one cached callback (emitHeadFn) instead of allocating a closure.
	doneQueue     [][]pendingSend
	doneQueueHead int
	emitHeadFn    func()
	// frameArgs is the reusable argument buffer for frame dispatches
	// (the VM does not retain it); unitArg the one timers, one-shots and
	// spawns pass.
	frameArgs [2]vm.Value
	unitArg   [1]vm.Value
	// argBoxes amortizes the per-frame interface boxing of the frame
	// string and port number arguments.
	strBox vm.StrBoxer
	intBox vm.IntBoxer
	// lastFrameRaw/lastFrameVal memoize the boxed frame-string argument:
	// when the same buffer is dispatched again (the steady-state stream
	// case — the sender re-uses its template encoding), the immutable
	// boxed value is reused instead of boxed afresh. Holding the buffer
	// reference keeps the identity test sound against address reuse.
	lastFrameRaw []byte
	lastFrameVal vm.Value
	// curRaw is the frame being dispatched; a switchlet send of the
	// identical bytes (the forwarding fast path) reuses this buffer
	// instead of copying and re-validating the FCS.
	curRaw []byte

	// LogSink receives switchlet log output; nil discards.
	LogSink func(at netsim.Time, bridge, msg string)

	// LastPath records the most recent frame's cost decomposition when
	// TracePath is set.
	TracePath bool
	LastPath  PathSample

	Stats Stats

	netLoader *netLoader

	// --- fault plane ---
	// crashed freezes the node: ports dead, dispatches suppressed.
	crashed bool
	// epoch invalidates callbacks scheduled before a crash: After()
	// one-shots and spawns capture it and die silently if the node crashed
	// since they were scheduled (timers die by generation, CPU completions
	// through discardEmits).
	epoch uint64
	// discardEmits counts CPU frame completions whose queued sends were
	// dropped by a crash; emitHead consumes them as no-ops so the FIFO
	// stays aligned with doneQueue.
	discardEmits int
	// timerGen issues never-reused timer generations, so a timer name
	// recreated after a crash cannot be fired by a stale pre-crash arm.
	timerGen uint64
	// txqDrops is one overflow-notification cell per port, written only
	// by that port's transmit-queue owner (the NIC's engine, or the
	// segment owner's on a cut) and read at quiescent points.
	txqDrops []uint64
}

// IdentityMAC derives the bridge identity address from the id byte:
// 02:bb:00:00:<id>:00. New and topology validation share this single
// definition.
func IdentityMAC(id byte) ethernet.MAC {
	return ethernet.MAC{0x02, 0xbb, 0x00, 0x00, id, 0x00}
}

// DefaultOptLevel is the switchlet optimization level new bridges adopt:
// 0 links the wire bytecode as-is (the differential reference), anything
// >= 1 runs the shared quickened stream. Virtual time is identical at
// either level; the knob exists so differential tests and the benchmark's
// layer drivers can run the reference. New copies it into the bridge's
// loader once, so a change affects only bridges constructed afterwards. Not
// synchronized: set it between runs.
var DefaultOptLevel = 1

// DisableFlowCache has no effect; kept only because frozen bench/run.go
// reads it. The next benchmark PR removes it, Stats.FlowCacheHits/Misses,
// and the bridge.flow_cache_hit_ratio, vm.tier_enter_share.O2 and
// vm.ns_per_frame.O2 metrics together.
var DisableFlowCache = false

// New creates a bridge with the given number of ports. MACs are derived
// from the id byte (IdentityMAC) and ports share the identity address
// (transparent bridges do not source data frames).
func New(sim *netsim.Sim, name string, id byte, numPorts int, cost netsim.CostModel) *Bridge {
	b := &Bridge{
		Name:        name,
		sim:         sim,
		cost:        cost,
		cpu:         netsim.NewCPU(sim),
		mac:         IdentityMAC(id),
		dstHandlers: map[ethernet.MAC]FrameHandler{},
		timers:      map[string]*timerState{},
	}
	b.emitHeadFn = b.emitHead
	b.unitArg[0] = vm.Unit{}
	b.Machine = vm.NewMachine()
	b.Machine.Trace = vmTraceSink{b}
	b.Loader = vm.StdLoader(b.Machine)
	b.Loader.OptLevel = DefaultOptLevel
	b.Funcs = env.NewFuncRegistry()
	if err := env.Install(b.Loader, b, b.Funcs); err != nil {
		panic(err) // static environment construction cannot fail
	}
	b.txqDrops = make([]uint64, numPorts)
	for i := 0; i < numPorts; i++ {
		nic := netsim.NewNIC(sim, fmt.Sprintf("%s.eth%d", name, i), b.mac)
		// Paper: "whenever an input port is bound, it is put into
		// promiscuous mode" — a transparent bridge must see all frames.
		nic.Promiscuous = true
		idx := i
		nic.SetRecv(func(_ *netsim.NIC, raw []byte) { b.onFrame(idx, raw) })
		// The overflow notification writes only its own port's cell (the
		// TxDropFunc contract: on a cut segment it runs on the owner
		// engine, so it must not touch shared bridge state).
		cell := &b.txqDrops[i]
		nic.SetTxDropFn(func(*netsim.NIC, []byte) { *cell++ })
		b.ports = append(b.ports, nic)
		b.blocked = append(b.blocked, false)
	}
	return b
}

// TxQueueDrops reports how many frames this node lost to transmit-queue
// overflow across all ports — the silent death a driver would never
// report to the switchlet. Read it at quiescent points only (cut ports
// account owner-side).
func (b *Bridge) TxQueueDrops() uint64 {
	var total uint64
	for i := range b.txqDrops {
		total += b.txqDrops[i]
	}
	return total
}

// Port returns the NIC for attachment to a segment.
func (b *Bridge) Port(i int) *netsim.NIC { return b.ports[i] }

// MAC returns the bridge identity address.
func (b *Bridge) MAC() ethernet.MAC { return b.mac }

// CPU exposes the node CPU (for utilization reporting in experiments).
func (b *Bridge) CPU() *netsim.CPU { return b.cpu }

// Sim returns the simulation the bridge runs in.
func (b *Bridge) Sim() *netsim.Sim { return b.sim }

// CostModel returns the node's cost model.
func (b *Bridge) CostModel() netsim.CostModel { return b.cost }

// --- env.Env implementation -------------------------------------------------

// NumPorts implements env.NetPorts.
func (b *Bridge) NumPorts() int { return len(b.ports) }

// Send implements env.NetPorts: queue a frame for transmission. During a
// dispatch the send is collected and charged as part of the frame path;
// outside dispatch (shouldn't happen from switchlet code) it is sent
// directly. Failures are the typed sentinels ErrNoSuchPort,
// ErrFrameTooLong and ErrFrameTooShort.
func (b *Bridge) Send(port int, data string, ctl bool) error {
	if port < 0 || port >= len(b.ports) {
		return fmt.Errorf("%w %d", ErrNoSuchPort, port)
	}
	if len(data) > ethernet.MaxFrameLen {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLong, len(data))
	}
	if b.ports[port].Segment() == nil {
		return nil // link down: drop, as a real driver would
	}
	if !ctl && b.blocked[port] {
		b.Stats.OutputBlocked++
		return nil // silently suppressed, like a filtering bridge port
	}
	var raw []byte
	if b.curRaw != nil && len(data) == len(b.curRaw) && string(b.curRaw) == data {
		// Forwarding fast path: the switchlet is sending the frame it is
		// currently dispatching, unmodified. The received frame already
		// carries a valid FCS, so reuse its buffer — no copy, no
		// re-validation. (string(b.curRaw) == data compiles to an
		// allocation-free comparison.)
		raw = b.curRaw
	} else {
		// view reads the string's bytes in place and does not outlive this
		// call: the wire frame is built from it in one allocation.
		view := unsafe.Slice(unsafe.StringData(data), len(data))
		if wireValid(view) {
			raw = []byte(data)
		} else {
			var err error
			if raw, err = sealFrame(view); err != nil {
				return err
			}
		}
	}
	ps := pendingSend{port: port, data: raw, ctl: ctl}
	if b.inDispatch {
		b.pendingSends = append(b.pendingSends, ps)
		return nil
	}
	b.emit(ps)
	return nil
}

// SendBytes is Send for native code that already holds the frame as a
// byte slice: identical semantics and accounting, without the per-frame
// string conversion. The slice must not be mutated after the call (the
// bridge may queue it as-is).
func (b *Bridge) SendBytes(port int, data []byte, ctl bool) error {
	if port < 0 || port >= len(b.ports) {
		return fmt.Errorf("%w %d", ErrNoSuchPort, port)
	}
	if len(data) > ethernet.MaxFrameLen {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLong, len(data))
	}
	if b.ports[port].Segment() == nil {
		return nil // link down: drop, as a real driver would
	}
	if !ctl && b.blocked[port] {
		b.Stats.OutputBlocked++
		return nil
	}
	raw := data
	if b.curRaw != nil && len(data) == len(b.curRaw) &&
		(&data[0] == &b.curRaw[0] || string(b.curRaw) == string(data)) {
		raw = b.curRaw
	} else {
		var err error
		raw, err = normalizeFrame(data)
		if err != nil {
			return err
		}
	}
	ps := pendingSend{port: port, data: raw, ctl: ctl}
	if b.inDispatch {
		b.pendingSends = append(b.pendingSends, ps)
		return nil
	}
	b.emit(ps)
	return nil
}

func (b *Bridge) emit(ps pendingSend) {
	if b.crashed {
		return // queued work dies with the node
	}
	b.Stats.FramesSent++
	b.ports[ps.port].Send(ps.data)
}

// normalizeFrame accepts either a complete wire frame (valid FCS — the
// forwarding case, where the bridge must not modify the frame) or a bare
// header+payload built by a switchlet, which is padded and gets a fresh
// FCS — the paper's driver behaviour: "The CRC is returned on a read, but
// cannot be specified on a write."
func normalizeFrame(data []byte) ([]byte, error) {
	if wireValid(data) {
		return data, nil
	}
	return sealFrame(data)
}

// wireValid reports whether data is a complete wire frame with a valid FCS.
func wireValid(data []byte) bool {
	var f ethernet.Frame
	return f.Unmarshal(data) == nil
}

// sealFrame marshals a bare header+payload into a fresh wire frame; data
// is only read.
func sealFrame(data []byte) ([]byte, error) {
	if len(data) < ethernet.HeaderLen {
		return nil, ErrFrameTooShort
	}
	var f ethernet.Frame
	copy(f.Dst[:], data[0:6])
	copy(f.Src[:], data[6:12])
	f.Type = uint16(data[12])<<8 | uint16(data[13])
	f.Payload = data[ethernet.HeaderLen:]
	return f.Marshal()
}

// PortUp implements env.NetPorts.
func (b *Bridge) PortUp(port int) bool {
	return port >= 0 && port < len(b.ports) && b.ports[port].Segment() != nil
}

// SetPortBlock implements env.NetPorts.
func (b *Bridge) SetPortBlock(port int, blocked bool) {
	if port >= 0 && port < len(b.blocked) {
		b.blocked[port] = blocked
	}
}

// PortBlocked implements env.NetPorts.
func (b *Bridge) PortBlocked(port int) bool {
	return port >= 0 && port < len(b.blocked) && b.blocked[port]
}

// BridgeID implements env.NetPorts.
func (b *Bridge) BridgeID() string { return string(b.mac[:]) }

// NowMicros implements env.Clock.
func (b *Bridge) NowMicros() int64 { return int64(b.sim.Now()) / 1000 }

// SetHandler implements env.Demux: replace the default frame handler (how
// the learning switchlet "replaces the switching function from the dumb
// bridge").
func (b *Bridge) SetHandler(fn vm.Value) {
	b.defaultHandler = FrameHandler{VM: fn, Name: "vm-default"}
}

// SetNativeHandler installs a native-code default handler.
func (b *Bridge) SetNativeHandler(name string, fn func(data []byte, inPort int)) {
	b.defaultHandler = FrameHandler{Native: fn, Name: name}
}

// ClearHandler releases the default frame handler: the node forwards
// nothing until new behaviour claims the data path. The Manager calls it
// when uninstalling a switchlet whose manifest owns the data path.
func (b *Bridge) ClearHandler() {
	b.defaultHandler = FrameHandler{}
}

// DefaultHandlerName reports which handler currently owns the data path.
func (b *Bridge) DefaultHandlerName() string { return b.defaultHandler.Name }

// SetDstHandler is the single destination-registration entry point: it
// claims address m for handler h, whether h wraps switchlet bytecode or
// native code. The paper's first-to-bind-wins rule applies: "the first
// switchlet to bind to a given port succeeds and all others fail"
// (ErrDstBound).
func (b *Bridge) SetDstHandler(m ethernet.MAC, h FrameHandler) error {
	if _, taken := b.dstHandlers[m]; taken {
		return fmt.Errorf("destination %v %w", m, ErrDstBound)
	}
	b.dstHandlers[m] = h
	return nil
}

// ClearDstHandler removes a registration by address.
func (b *Bridge) ClearDstHandler(m ethernet.MAC) {
	delete(b.dstHandlers, m)
}

// BindDst implements env.Demux: register a switchlet function for frames
// destined to m.
func (b *Bridge) BindDst(m ethernet.MAC, fn vm.Value) error {
	return b.SetDstHandler(m, FrameHandler{VM: fn, Name: "vm-dst-" + m.String()})
}

// UnbindDst implements env.Demux.
func (b *Bridge) UnbindDst(m ethernet.MAC) { b.ClearDstHandler(m) }

// SetTimer implements env.Demux.
func (b *Bridge) SetTimer(name string, periodMs int64, fn vm.Value) {
	b.installTimer(name, netsim.Duration(periodMs)*netsim.Millisecond, fn, nil)
}

// SetNativeTimer installs a periodic native callback.
func (b *Bridge) SetNativeTimer(name string, period netsim.Duration, fn func()) {
	b.installTimer(name, period, nil, fn)
}

func (b *Bridge) installTimer(name string, period netsim.Duration, fn vm.Value, native func()) {
	// Generations are issued from a node-wide counter and never reused,
	// so a pending arm can never fire a namesake timer installed after a
	// crash cleared the table.
	b.timerGen++
	ts := &timerState{name: name, period: period, fn: fn, native: native, gen: b.timerGen}
	ts.fire = func() {
		cur, ok := b.timers[ts.name]
		if !ok || cur.gen != ts.gen {
			return // cancelled or replaced
		}
		b.Stats.TimerFires++
		if ts.native != nil {
			b.runNativeDispatch(ts.native)
		} else {
			b.runVMDispatch(ts.fn)
		}
		b.sim.After(ts.period, ts.fire)
	}
	b.timers[name] = ts
	b.sim.After(ts.period, ts.fire)
}

// CancelTimer implements env.Demux.
func (b *Bridge) CancelTimer(name string) { delete(b.timers, name) }

// After implements env.Demux.
func (b *Bridge) After(delayMs int64, fn vm.Value) {
	ep := b.epoch
	b.sim.After(netsim.Duration(delayMs)*netsim.Millisecond, func() {
		if b.epoch != ep {
			return // scheduled before a crash: the callback died with the node
		}
		b.runVMDispatch(fn)
	})
}

// Spawn implements env.Threads.
func (b *Bridge) Spawn(fn vm.Value) { b.spawnQueue = append(b.spawnQueue, fn) }

// Log implements env.Logger.
func (b *Bridge) Log(msg string) {
	if b.LogSink != nil {
		b.LogSink(b.sim.Now(), b.Name, msg)
	}
}

// --- frame path -------------------------------------------------------------

// frameString views raw as a string without copying. This is safe because
// frames on the simulated medium are immutable once transmitted (the
// netsim receive contract: "the slice must not be mutated") and swl
// strings are immutable, so no writer exists on either side.
//
//ab:allocfree
func frameString(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(raw), len(raw))
}

// getSendBuf borrows a pendingSend buffer from the pool.
func (b *Bridge) getSendBuf() []pendingSend {
	if n := len(b.sendBufs); n > 0 {
		buf := b.sendBufs[n-1]
		b.sendBufs = b.sendBufs[:n-1]
		return buf
	}
	return make([]pendingSend, 0, 4)
}

// putSendBuf returns a dispatch's send list to the pool, dropping frame
// references so they do not outlive their transmission.
func (b *Bridge) putSendBuf(buf []pendingSend) {
	if buf == nil {
		return
	}
	for i := range buf {
		buf[i].data = nil
	}
	if len(b.sendBufs) < 16 {
		b.sendBufs = append(b.sendBufs, buf[:0])
	}
}

// emitSends transmits a dispatch's collected frames and recycles the
// buffer; it runs as the CPU completion callback.
func (b *Bridge) emitSends(sends []pendingSend) {
	for i := range sends {
		b.emit(sends[i])
	}
	b.putSendBuf(sends)
}

// emitHead emits the oldest queued send list (see doneQueue).
func (b *Bridge) emitHead() {
	if b.discardEmits > 0 {
		// This completion's sends were dropped by a crash; consume the
		// no-op so the CPU FIFO stays aligned with doneQueue.
		b.discardEmits--
		return
	}
	sends := b.doneQueue[b.doneQueueHead]
	b.doneQueue[b.doneQueueHead] = nil
	b.doneQueueHead++
	if b.doneQueueHead == len(b.doneQueue) {
		b.doneQueue = b.doneQueue[:0]
		b.doneQueueHead = 0
	} else if b.doneQueueHead >= 64 {
		// Compact under sustained backlog so the backing array stays
		// bounded by the outstanding dispatches, not the run length.
		b.doneQueue = b.doneQueue[:copy(b.doneQueue, b.doneQueue[b.doneQueueHead:])]
		b.doneQueueHead = 0
	}
	b.emitSends(sends)
}

func (b *Bridge) onFrame(inPort int, raw []byte) {
	if b.crashed {
		return // frozen: a dead node processes nothing
	}
	b.Stats.FramesIn++
	if b.netLoader != nil && b.netLoader.maybeHandle(inPort, raw) {
		return
	}
	dst, err := ethernet.PeekDst(raw)
	if err != nil {
		return
	}
	h, isDst := b.dstHandlers[dst]
	if !isDst {
		if b.blocked[inPort] {
			// A blocked port still receives control traffic (through dst
			// registrations) but no data traffic.
			b.Stats.InputSuppressed++
			b.traceEvent(tracing.KindVerdict, tracing.FormLabel, "suppressed")
			return
		}
		h = b.defaultHandler
	}
	// One nil test covers the demux event and the counters the VM
	// span's operands are deltas of.
	te := b.sim.TraceEngine()
	var steps0, alloc0 uint64
	var tiers0 [2]uint64
	if te != nil {
		b.emitTrace(te, tracing.KindDemux, 0, tracing.FormDemux, h.Name)
		steps0, alloc0 = b.Machine.Steps, b.Machine.AllocBytes
		tiers0 = b.Machine.TierEnters
	}
	if h.empty() {
		b.Stats.NoHandlerDrops++
		b.traceEvent(tracing.KindVerdict, tracing.FormLabel, "no-handler")
		return
	}
	b.Stats.FramesDelivered++

	recvCost := b.cost.KernelCrossing(len(raw))
	var execCost netsim.Duration
	var sends []pendingSend
	var trapped bool
	b.curRaw = raw
	if h.Native != nil {
		sends = b.collectSends(func() { h.Native(raw, inPort) })
		execCost = b.cost.NativePerFrame
	} else {
		if len(raw) == len(b.lastFrameRaw) && &raw[0] == &b.lastFrameRaw[0] {
			b.frameArgs[0] = b.lastFrameVal
		} else {
			b.frameArgs[0] = b.strBox.Box(frameString(raw))
			b.lastFrameRaw, b.lastFrameVal = raw, b.frameArgs[0]
		}
		b.frameArgs[1] = b.intBox.Box(int64(inPort))
		sends, trapped = b.invokeVM(h.VM, b.frameArgs[:])
		execCost = b.lastVMCost
		if trapped {
			b.Stats.HandlerTraps++
		}
	}
	b.curRaw = nil

	if te != nil {
		if h.Native != nil {
			b.emitTrace(te, tracing.KindVM, int64(execCost), tracing.FormNative, h.Name)
		} else {
			m := b.Machine
			b.emitTrace(te, tracing.KindVM, int64(execCost), tracing.FormVM, h.Name,
				int64(m.Steps-steps0), int64(m.AllocBytes-alloc0),
				int64(m.TierEnters[0]-tiers0[0]), int64(m.TierEnters[1]-tiers0[1]))
		}
		if trapped {
			b.emitTrace(te, tracing.KindVerdict, 0, tracing.FormLabel, "trap-drop")
		} else {
			b.emitTrace(te, tracing.KindVerdict, 0, tracing.FormForward, "", int64(len(sends)))
		}
	}

	var sendCost netsim.Duration
	for i := range sends {
		sendCost += b.cost.KernelCrossing(len(sends[i].data))
	}
	b.Stats.VMTime += execCost
	b.Stats.KernelTime += recvCost + sendCost

	if b.TracePath {
		b.LastPath = PathSample{
			When: b.sim.Now(), FrameLen: len(raw),
			KernelRecv: recvCost, Exec: execCost, KernelSend: sendCost,
			Sends: len(sends),
		}
	}

	total := recvCost + execCost + sendCost
	b.doneQueue = append(b.doneQueue, sends)
	b.cpu.Exec(total, b.emitHeadFn)
}

// traceEvent records one bridge instant when the net is traced. It takes
// scalars, so an untraced call is one nil test and builds no Event
// whether or not the compiler inlines it.
func (b *Bridge) traceEvent(kind tracing.Kind, form tracing.Form, name string) {
	if te := b.sim.TraceEngine(); te != nil {
		b.emitTrace(te, kind, 0, form, name)
	}
}

// emitTrace records one bridge event under the frame's ambient trace
// context (dur > 0 makes it a span; n are the form's integer operands).
func (b *Bridge) emitTrace(te *tracing.Engine, kind tracing.Kind, dur int64, form tracing.Form, name string, n ...int64) {
	ev := tracing.Event{
		VT: int64(b.sim.Now()), Dur: dur, Trace: b.sim.CurTrace(),
		Kind: kind, Node: b.Name, Form: form, Name: name,
	}
	copy(ev.N[:], n)
	te.Emit(ev)
}

// traceDump records a slow-path event (trap, crash, load rejection,
// rollback) and dumps the flight recorder: the causal prefix of what
// just went wrong on this engine.
func (b *Bridge) traceDump(kind tracing.Kind, form tracing.Form, name, reason string) {
	if te := b.sim.TraceEngine(); te != nil {
		b.emitTrace(te, kind, 0, form, name)
		te.DumpFlight(reason, int64(b.sim.Now()))
	}
}

// vmTraceSink feeds the VM's deoptimization events into the tracing plane
// under the ambient trace context. It is installed unconditionally; the
// nil-tracer check happens per event, on what is already a slow path.
type vmTraceSink struct{ b *Bridge }

func (s vmTraceSink) TraceDeopt(reason string) {
	s.b.traceEvent(tracing.KindDeopt, tracing.FormLabel, reason)
}

// collectSends runs fn with send collection enabled and returns the frames
// it queued. The returned slice is pooled: pass it to emitSends (or
// putSendBuf) exactly once.
func (b *Bridge) collectSends(fn func()) []pendingSend {
	wasIn := b.inDispatch
	b.inDispatch = true
	saved := b.pendingSends
	b.pendingSends = b.getSendBuf()
	fn()
	out := b.pendingSends
	b.pendingSends = saved
	b.inDispatch = wasIn
	b.drainSpawns()
	return out
}

// invokeVM runs a switchlet function, metering VM cost into lastVMCost.
// args may be a caller-owned scratch buffer (the VM does not retain it).
func (b *Bridge) invokeVM(fn vm.Value, args []vm.Value) (sends []pendingSend, trapped bool) {
	steps0, alloc0 := b.Machine.Steps, b.Machine.AllocBytes
	wasIn := b.inDispatch
	b.inDispatch = true
	saved := b.pendingSends
	b.pendingSends = b.getSendBuf()
	if _, err := b.Machine.InvokeArgs(fn, args); err != nil {
		trapped = true
		b.Log("switchlet trap: " + err.Error())
		b.traceDump(tracing.KindTrap, tracing.FormLabel, err.Error(), "vm trap at "+b.Name+": "+err.Error())
	}
	sends = b.pendingSends
	b.pendingSends = saved
	b.inDispatch = wasIn
	b.drainSpawns()
	b.lastVMCost = b.cost.VMCost(b.Machine.Steps-steps0, b.Machine.AllocBytes-alloc0)
	if trapped {
		// A trapped handler forwards nothing: drop its queued sends, the
		// conservative failure mode.
		b.putSendBuf(sends)
		sends = nil
	}
	return sends, trapped
}

// runVMDispatch runs a VM callback of unit outside the frame path (timers,
// one-shots, spawns) and charges its cost plus its sends to the CPU. The
// sends ride the frame path's doneQueue, so a crash drops them the same way.
func (b *Bridge) runVMDispatch(fn vm.Value) {
	if b.crashed {
		return
	}
	sends, trapped := b.invokeVM(fn, b.unitArg[:])
	if trapped {
		b.Stats.HandlerTraps++
	}
	var sendCost netsim.Duration
	for i := range sends {
		sendCost += b.cost.KernelCrossing(len(sends[i].data))
	}
	b.Stats.VMTime += b.lastVMCost
	b.Stats.KernelTime += sendCost
	b.doneQueue = append(b.doneQueue, sends)
	b.cpu.Exec(b.lastVMCost+sendCost, b.emitHeadFn)
}

// runNativeDispatch is runVMDispatch for native callbacks.
func (b *Bridge) runNativeDispatch(fn func()) {
	if b.crashed {
		return
	}
	sends := b.collectSends(fn)
	var sendCost netsim.Duration
	for i := range sends {
		sendCost += b.cost.KernelCrossing(len(sends[i].data))
	}
	b.doneQueue = append(b.doneQueue, sends)
	b.cpu.Exec(b.cost.NativePerFrame+sendCost, b.emitHeadFn)
}

func (b *Bridge) drainSpawns() {
	for len(b.spawnQueue) > 0 {
		q := b.spawnQueue
		b.spawnQueue = nil
		for _, fn := range q {
			fn := fn
			ep := b.epoch
			b.sim.After(0, func() {
				if b.epoch != ep {
					return
				}
				b.runVMDispatch(fn)
			})
		}
	}
}

// --- fault plane ------------------------------------------------------------

// Crashed reports whether the node is currently frozen by a fault-plane
// crash.
func (b *Bridge) Crashed() bool { return b.crashed }

// Crash freezes the node at the current instant: a power cut, not a
// graceful shutdown. All ports lose carrier, every queued dispatch and
// pending send dies, timers and scheduled one-shots are invalidated, and
// nothing is processed until Restart. The Manager snapshots the installed
// manifest set and running state first, so Restart can re-install what a
// real node would re-deploy from stable storage; any upgrade caught in its
// validation window is marked rolled back (a crashed bridge cannot commit).
//
// Call it only from the node's own engine or from a coordinator control
// event (the fault plane schedules crashes on the control engine, which
// runs at a global barrier).
func (b *Bridge) Crash() {
	if b.crashed {
		return
	}
	// Snapshot lifecycle state while the machine is still answerable:
	// noteCrash queries each switchlet's Running probe and fails pending
	// upgrade validations before the freeze makes queries meaningless.
	b.Manager().noteCrash()
	b.crashed = true
	b.epoch++
	b.Stats.Crashes++
	for i, p := range b.ports {
		p.SetLinkDown(true)
		b.blocked[i] = false
	}
	// Queued dispatch completions: their sends die, but the CPU FIFO
	// still fires each completion, so convert them to no-ops.
	for i := b.doneQueueHead; i < len(b.doneQueue); i++ {
		b.putSendBuf(b.doneQueue[i])
		b.doneQueue[i] = nil
		b.discardEmits++
	}
	b.doneQueue = b.doneQueue[:0]
	b.doneQueueHead = 0
	b.spawnQueue = nil
	clear(b.timers)
	b.Log("bridge: CRASH (fault plane)")
	b.traceDump(tracing.KindMark, tracing.FormLabel, "crash (fault plane)", "crash at "+b.Name)
}

// Restart brings a crashed node back with cold state: carrier returns,
// learning tables and the VM heap contents installed by dead dispatches
// are gone, and the Manager re-installs the manifest set it snapshotted at
// crash time (the node's stable-storage image) and restarts whatever was
// running. Natively installed behaviour and netloaded switchlets are NOT
// restored — they arrived outside the Manager and die with the node; see
// the package fault documentation. Restart returns the first re-install
// error, if any (the node is unfrozen regardless).
func (b *Bridge) Restart() error {
	if !b.crashed {
		return nil
	}
	b.crashed = false
	b.Stats.Restarts++
	for _, p := range b.ports {
		p.SetLinkDown(false)
	}
	b.Log("bridge: restart (cold)")
	return b.Manager().coldRestart()
}

// SetPortLink sets the fault plane's carrier state on one port (a pulled
// cable on a multi-port node, as opposed to Segment.SetDown which cuts the
// whole medium). Dropping a link notifies the Manager: an upgrade caught
// in its validation window rolls back rather than committing on a probe
// it measured across a fault.
func (b *Bridge) SetPortLink(port int, down bool) {
	if port < 0 || port >= len(b.ports) {
		return
	}
	if b.ports[port].LinkDown() == down {
		return
	}
	b.ports[port].SetLinkDown(down)
	if down && b.manager != nil {
		b.manager.NoteFault(fmt.Sprintf("port %d link down", port))
	}
}

// LoadObjectBytes loads an encoded switchlet object into the node,
// charging the loader's evaluation cost (function-agility is measured
// around this, paper §7.5).
func (b *Bridge) LoadObjectBytes(data []byte) error {
	return b.chargeLoad(func() error { _, err := b.Loader.Load(data); return err })
}

// LoadDecodedObject links an already decoded switchlet object — typically
// the process-wide cache's shared, verified and quickened form — charging
// the same evaluation cost as LoadObjectBytes without re-decoding.
func (b *Bridge) LoadDecodedObject(obj *vm.Object) error {
	return b.chargeLoad(func() error { _, err := b.Loader.LoadObject(obj); return err })
}

// chargeLoad runs one loader call, holds the CPU for what it metered and
// reports a rejection to the log, the trace and the flight recorder.
func (b *Bridge) chargeLoad(load func() error) error {
	steps0, alloc0 := b.Machine.Steps, b.Machine.AllocBytes
	err := load()
	cost := b.cost.VMCost(b.Machine.Steps-steps0, b.Machine.AllocBytes-alloc0)
	b.cpu.Hold(cost)
	if err != nil {
		b.Log("switchlet load failed: " + err.Error())
		b.traceDump(tracing.KindMark, tracing.FormLoadReject, err.Error(), "switchlet load rejected at "+b.Name+": "+err.Error())
		return err
	}
	b.drainSpawns()
	return nil
}
