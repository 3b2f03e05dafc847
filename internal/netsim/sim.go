// Package netsim is a deterministic discrete-event simulator of extended
// Ethernet LANs. It stands in for the paper's physical testbed: 100 Mbps
// shared segments, NICs with promiscuous capture, per-node CPUs with a
// calibrated cost model for the Linux kernel path and the switchlet VM.
//
// The paper's measurements are properties of a software path — a user-space
// bytecode interpreter behind kernel packet sockets — rather than of any
// particular NIC hardware. The simulator reproduces that path stage by
// stage (paper Figure 5):
//
//  1. frame arrives on the segment (wire time at 100 Mbps),
//  2. ISR + kernel delivery (CostModel.KernelPerFrame/KernelPerByte),
//  3. the bridge program runs (VM instruction accounting or native cost),
//  4. kernel send path (same kernel costs),
//  5. frame is transmitted onto the destination segment (wire time).
//
// All processing on a node is serialized through the node's CPU resource,
// which is what produces interpretation-limited frame rates at saturation.
package netsim

import (
	"fmt"

	"github.com/switchware/activebridge/internal/tracing"
)

// eventKey is a heap entry: the ordering key plus the index of the
// event's payload in the simulation's payload slab. Keys are
// pointer-free, so sifting them around the heap involves no GC write
// barriers — the dominant cost of a pointer-per-event heap.
//
// Events order by (at, genAt, src, seq): execution instant, then the
// virtual instant the event was scheduled, then the scheduling engine's
// rank, then the engine-local sequence. On a serial simulation this is
// provably the plain (at, seq) order — sequence numbers are assigned in
// execution order, so seq strictly refines (genAt, src) — and the extra
// fields cost only a few never-taken comparisons. On a sharded
// simulation the key is what makes cross-shard merges reproduce serial
// scheduling order: a frame delivery folded in from another shard
// carries the virtual instant it was scheduled there, and lands between
// local events exactly where the serial engine would have sequenced it,
// however the wall clock interleaved the shards.
//
// The key is four register-sized fields (the two 32-bit ones share a
// word as an embedded struct) because that is what lets the compiler
// keep one in registers: a fifth field would send every key passed or
// returned by value through a stack temporary.
type eventKey struct {
	at    Time
	genAt Time
	seq   uint64
	eventRef
}

// eventRef is the last word of an eventKey: the scheduling engine's rank
// (an ordering field) and the payload's slab index (not one).
type eventRef struct {
	src int32
	idx int32
}

// before reports strict ordering of heap keys. It takes both keys by
// value so that a caller's key can stay in registers, and nearly every
// comparison resolves on the execution instant, so that test is what
// inlines into the sift loops; the tie-break stays out of line.
func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.tieBefore(o)
}

// tieBefore orders two keys with equal execution instants. It must not
// inline: folded into before, it would push before itself past the
// compiler's inlining budget and put a call into every sift step.
//
//go:noinline
func (k eventKey) tieBefore(o eventKey) bool {
	if k.genAt != o.genAt {
		return k.genAt < o.genAt
	}
	if k.src != o.src {
		return k.src < o.src
	}
	return k.seq < o.seq
}

// evKind says which of an eventPayload's operands a dispatch uses.
type evKind uint8

const (
	evFunc    evKind = iota // fn()
	evBytes                 // bfn(raw)
	evDeliver               // nic.deliver(raw): a copy folded in from another shard
	evSegment               // seg.deliverLocal(nic, raw, nn, dup)
)

// eventPayload holds what a scheduled event does. Frame deliveries (nic +
// raw) and single-[]byte callbacks (bfn + raw) — the overwhelming majority
// of events in a forwarding simulation — are represented inline instead of
// as closures, so scheduling one does not allocate. A payload lives in one
// slab slot from scheduling to dispatch: the Schedule helpers fill the
// slot in place (only the operands of their kind — a recycled slot keeps
// whatever else it last held, which kind makes unreachable) and dispatch
// reads it there, so the struct is never copied. Slots are recycled
// through a free list.
type eventPayload struct {
	fn  func()
	bfn func([]byte)
	nic *NIC // evDeliver: the receiver; evSegment: the transmitter
	raw []byte
	// seg makes an evSegment event the one delivery of a transmission:
	// raw goes to the first nn locally attached NICs of seg except nic, in
	// attach order, twice each when dup. It is the only way a local frame
	// arrives, for one receiver or many. Per-receiver events would carry
	// the same (at, genAt, src) and consecutive seqs, so nothing could
	// order between them, and the batch dispatches in the same order.
	// It counts once per delivery (see Sim.MaxEvents).
	seg *Segment
	// cpu, on an evFunc or evBytes event, marks the completion of a job on
	// that CPU: dispatching it first promotes the CPU's next parked job
	// into the heap (see CPU). Nil for every other event.
	cpu *CPU
	// trace is the causal trace context captured when the event was
	// scheduled and restored as the ambient context when it dispatches,
	// which is how a trace ID follows a frame through every scheduled
	// hop without any callback signature changing. Zero means untraced.
	trace uint64
	nn    int32
	dup   bool
	kind  evKind
}

// eventQueue is an index-addressed 4-ary min-heap of eventKeys in the
// full (at, genAt, src, seq) order, stored by value beside a slab of
// payloads the keys index: pushing and popping never boxes through
// interface{} and never allocates per event (the backing arrays grow
// amortized and are reused). A 4-ary layout does fewer, cache-friendlier
// levels than the binary container/heap it replaces. Both sifts move a
// hole instead of swapping: one 32-byte key move per level, and the
// travelling key is written once, where it lands.
//
// Only work whose order is not already known goes through the heap. A
// busy CPU's backlog is FIFO by construction, so it waits in the CPU's
// own lane and the heap holds one entry per CPU, the job in service (see
// CPU) — the same split a NIC makes between its transmit queue and its
// one drain event.
type eventQueue struct {
	keys     []eventKey
	payloads []eventPayload
	free     []int32
}

func (q *eventQueue) len() int { return len(q.keys) }

// alloc reserves a payload slot, stamped with the trace context the event
// will dispatch under, for the caller to fill in place.
func (q *eventQueue) alloc(trace uint64) (int32, *eventPayload) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.payloads))
		q.payloads = append(q.payloads, eventPayload{})
	}
	p := &q.payloads[idx]
	p.trace = trace
	return idx, p
}

// release returns a dispatched event's slot to the free list. Only the
// per-event references are dropped — the frame buffer, the bulk of
// retainable memory, and a one-shot closure. What remains (NIC, segment,
// CPU, cached callbacks) is small, long-lived and retained by the
// topology anyway, and scrubbing the whole slot would cost a
// write-barrier sweep on every event.
func (q *eventQueue) release(idx int32) {
	p := &q.payloads[idx]
	p.raw = nil
	p.fn = nil
	q.free = append(q.free, idx)
}

// push inserts a key whose payload slot is already filled, sifting the
// hole it opens at the bottom up to where k belongs.
func (q *eventQueue) push(k eventKey) {
	q.keys = append(q.keys, k)
	h := q.keys
	i := len(h) - 1
	for i > 0 {
		par := (i - 1) / 4
		if !k.before(h[par]) {
			break
		}
		h[i] = h[par]
		i = par
	}
	h[i] = k
}

// pop removes and returns the minimum key, sifting the hole it leaves at
// the root down to where the former last key belongs. The payload stays
// in its slot until the caller has dispatched and released it.
func (q *eventQueue) pop() eventKey {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.keys = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}

// Sim is a discrete-event simulation engine. The zero value is not
// usable; call New for a serial simulation or NewCoordinator for a
// sharded one (whose per-shard engines and control engine are all Sims).
type Sim struct {
	now    Time
	queue  eventQueue
	nextID uint64
	// parked counts jobs waiting in CPU lanes: scheduled, keyed and counted
	// by Pending, but not yet heap entries.
	parked int
	// Halted is set by Stop and ends Run early.
	halted bool
	// MaxEvents guards runaway simulations (e.g. broadcast storms in the
	// loop-without-spanning-tree experiments). Zero means no limit. A
	// Run or RunAll stops after the event that brings its own count of
	// executed events to MaxEvents. A segment delivery is one event that
	// counts once per receiving NIC, so the count can pass the cap by
	// the rest of that delivery. A cap that is never reached changes
	// nothing. A sharded simulation applies the same rule to its global
	// count, but its shards run concurrently, so which event reaches the
	// cap is not serial-identical: treat it as a guard, not a measurement.
	MaxEvents uint64
	executed  uint64

	// coord/shard bind this engine into a sharded simulation (nil/-1 for
	// the control engine; nil/0 value for a plain serial Sim). lastAt is
	// the time of the last executed event, which the coordinator uses to
	// reconstruct the serial clock at quiescence. rank is the engine's
	// position in event-key src ordering (0 serial; shard index; -1
	// control), and curGenAt is the genAt of the event currently being
	// dispatched — the serial scheduling position inherited by any
	// cross-shard transmit it performs.
	coord    *Coordinator
	shard    int
	lastAt   Time
	rank     int32
	curGenAt Time

	// trc is this engine's tracing surface (nil when the net is not
	// traced — the frame path then pays exactly one nil check), and
	// curTrace is the trace context of the event currently dispatching,
	// inherited by everything it schedules.
	trc      *tracing.Engine
	curTrace uint64

	// quiesce holds callbacks fired at every quiescent point of a serial
	// engine: at the end of each Run/RunAll, when no event is executing.
	// The metrics plane publishes from them. Sharded engines delegate to
	// the coordinator's quiescence instead (see OnQuiesce).
	quiesce []func()
}

// New creates an empty simulation at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Executed reports the number of events this engine has executed.
func (s *Sim) Executed() uint64 { return s.executed }

// QueueLen reports this engine's own heap depth (unlike Pending, it
// never aggregates across a sharded simulation, and it leaves out jobs
// parked in CPU lanes — see CPU.Backlog for those). Read it only from
// the engine's goroutine or at quiescent points.
func (s *Sim) QueueLen() int { return s.queue.len() }

// OnQuiesce registers fn to run at every quiescent point: after each
// Run/RunAll returns its event loop, while no event is executing. On an
// engine belonging to a sharded simulation the registration is
// delegated to the coordinator, whose quiescent points play the same
// role. Callbacks may read any simulation state but must not schedule
// events or otherwise advance the simulation.
func (s *Sim) OnQuiesce(fn func()) {
	if s.coord != nil {
		s.coord.OnQuiesce(fn)
		return
	}
	s.quiesce = append(s.quiesce, fn)
}

// quiesced fires the serial quiescence callbacks.
func (s *Sim) quiesced() {
	for _, fn := range s.quiesce {
		fn()
	}
}

// SetTraceEngine installs this engine's tracing surface; nil disables
// tracing, which is the default and costs the frame path one nil check.
func (s *Sim) SetTraceEngine(e *tracing.Engine) { s.trc = e }

// TraceEngine returns this engine's tracing surface (nil when the net
// is untraced).
func (s *Sim) TraceEngine() *tracing.Engine { return s.trc }

// CurTrace returns the trace context of the event currently
// dispatching on this engine — zero when untraced.
func (s *Sim) CurTrace() uint64 { return s.curTrace }

// newEvent mints the ordering key of an event scheduled now for at, and
// reserves its payload slot, stamped with the ambient trace context. The
// caller fills in the slot's kind and operands, then pushes the key (or,
// for a busy CPU, parks it). An event scheduled strictly in the past is
// clamped to run at the current instant, after already pending events for
// that instant.
func (s *Sim) newEvent(at Time) (eventKey, *eventPayload) {
	if at < s.now {
		at = s.now
	}
	s.nextID++
	idx, p := s.queue.alloc(s.curTrace)
	return eventKey{at: at, genAt: s.now, seq: s.nextID, eventRef: eventRef{src: s.rank, idx: idx}}, p
}

// Schedule runs fn at the given absolute time. Scheduling in the past (or at
// the present instant) runs the event at the current time, after already
// pending events for that time. Events scheduled at the same instant run
// in scheduling order.
func (s *Sim) Schedule(at Time, fn func()) {
	k, p := s.newEvent(at)
	p.kind, p.fn, p.cpu = evFunc, fn, nil
	s.queue.push(k)
}

// scheduleDeliverSeg schedules a transmission's one delivery event: raw
// to every local NIC of g except from (snapshotting the current attachment
// count — NICs attached later must not see earlier frames).
func (s *Sim) scheduleDeliverSeg(at Time, g *Segment, from *NIC, raw []byte, dup bool) {
	k, p := s.newEvent(at)
	p.kind, p.seg, p.nic, p.raw, p.nn, p.dup = evSegment, g, from, raw, int32(len(g.nics)), dup
	s.queue.push(k)
}

// dispatch runs the popped event whose payload is in slot idx, under its
// trace context, then releases the slot. It returns how many logical
// events that was: 1, except for a segment delivery, which counts one
// per frame delivered (see Sim.MaxEvents). The payload is read where it
// lies; the operands are loaded before the call, so a callback that
// grows the slab under it is harmless.
func (s *Sim) dispatch(idx int32) int {
	e := &s.queue.payloads[idx]
	s.curTrace = e.trace
	n := 1
	switch e.kind {
	case evSegment:
		n = e.seg.deliverLocal(e.nic, e.raw, e.nn, e.dup)
	case evDeliver:
		e.nic.deliver(e.raw)
	case evBytes:
		if e.cpu != nil {
			e.cpu.promote()
		}
		e.bfn(e.raw)
	default:
		if e.cpu != nil {
			e.cpu.promote()
		}
		e.fn()
	}
	s.queue.release(idx)
	return n
}

// After schedules fn to run d from now.
func (s *Sim) After(d Duration, fn func()) { s.Schedule(s.now.Add(d), fn) }

// Stop halts the simulation: Run returns after the current event.
func (s *Sim) Stop() {
	s.halted = true
	if s.coord != nil {
		s.coord.Stop()
	}
}

// Run executes events until the queue is empty, the deadline passes, Stop is
// called, or MaxEvents is reached. It returns the number of events executed.
// A run that drains the queue leaves the clock at the deadline.
// On an engine belonging to a sharded simulation, Run drives the whole
// coordinated simulation (all shards plus control) to the deadline.
func (s *Sim) Run(until Time) uint64 {
	if s.coord != nil {
		return s.coord.Run(until)
	}
	return s.run(until)
}

// RunAll executes events until the queue is empty, Stop is called, or
// MaxEvents is reached. Unlike Run it has no deadline, so the clock stays
// at the last executed event.
func (s *Sim) RunAll() uint64 {
	if s.coord != nil {
		return s.coord.RunAll()
	}
	return s.run(maxTime)
}

// run is the serial event loop behind Run and RunAll; until == maxTime
// means no deadline, and then the clock stays where it is.
func (s *Sim) run(until Time) uint64 {
	start := s.executed
	for s.queue.len() > 0 && !s.halted && s.queue.keys[0].at <= until {
		k := s.queue.pop()
		s.now = k.at
		s.executed += uint64(s.dispatch(k.idx))
		if s.MaxEvents != 0 && s.executed-start >= s.MaxEvents {
			break
		}
	}
	s.curTrace = 0
	if until != maxTime && s.now < until && !s.halted && s.queue.len() == 0 {
		s.now = until
	}
	s.quiesced()
	return s.executed - start
}

// peekKey returns the head event's ordering key, if any.
func (s *Sim) peekKey() (eventKey, bool) {
	if s.queue.len() == 0 {
		return eventKey{}, false
	}
	return s.queue.keys[0], true
}

// Pending reports the number of events scheduled but not yet executed:
// heap entries plus jobs parked in CPU lanes (across all shards, for an
// engine belonging to a sharded simulation).
func (s *Sim) Pending() int {
	if s.coord != nil {
		return s.coord.Pending()
	}
	return s.queue.len() + s.parked
}

// CPU models a serially shared processing resource (one per node). Work
// submitted to the CPU executes in submission order; each item occupies the
// CPU for its stated cost. This is what turns per-frame software costs into
// saturation frame-rate limits, the paper's dominant effect.
//
// A saturated CPU's backlog is the bulk of a forwarding simulation's
// pending events, and it is already sorted, so it stays out of the event
// heap. Every job's completion is minted at submission — full ordering
// key, trace context, payload slot — but only the job in service is a
// heap entry. Jobs submitted while one is in service park their keys in
// the CPU's lane, and each completion, as it dispatches, promotes the
// next parked key into the heap before running its own callback. An idle
// CPU pushes straight to the heap and never touches the lane.
//
// The lane is sound because one CPU's completion keys are minted in
// strictly increasing order: busyUntil never decreases (costs are
// non-negative), the clock and so genAt never run backwards, and seq
// counts up. A parked job therefore orders after the job in service, and
// everything popped before that job dispatches orders before both — the
// heap never misses the parked key, and pop order is exactly that of a
// heap holding every job.
type CPU struct {
	sim       *Sim
	busyUntil Time
	// Busy accumulates total occupied time, for utilization reporting.
	Busy Duration

	// inService is set while a completion of this CPU is a heap entry;
	// lane[head:] are the keys parked behind it, in submission order.
	inService bool
	lane      []eventKey
	head      int
}

// NewCPU creates a CPU bound to the simulation clock.
func NewCPU(sim *Sim) *CPU { return &CPU{sim: sim} }

// occupy books cost on the CPU behind earlier work and returns the
// completion time.
func (c *CPU) occupy(cost Duration) Time {
	if cost < 0 {
		panic(fmt.Sprintf("netsim: negative CPU cost %v", cost))
	}
	start := c.sim.now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	done := start.Add(cost)
	c.busyUntil = done
	c.Busy += cost
	return done
}

// submit enters a completion whose payload slot is filled: into the heap
// when the CPU is idle, into the lane behind the job in service otherwise.
func (c *CPU) submit(k eventKey) {
	if !c.inService {
		c.inService = true
		c.sim.queue.push(k)
		return
	}
	c.lane = append(c.lane, k)
	c.sim.parked++
}

// promote runs as a completion of this CPU dispatches, before its
// callback: the next parked job, if any, becomes the heap entry, under
// the key it was submitted with.
func (c *CPU) promote() {
	if c.head == len(c.lane) {
		c.inService = false
		return
	}
	k := c.lane[c.head]
	c.head++
	if c.head == len(c.lane) {
		c.lane, c.head = c.lane[:0], 0
	} else if c.head >= 64 && 2*c.head >= len(c.lane) {
		// Under a backlog that never drains, reclaim the consumed half so
		// the backing array is bounded by the backlog, not the run length.
		c.lane, c.head = c.lane[:copy(c.lane, c.lane[c.head:])], 0
	}
	c.sim.parked--
	c.sim.queue.push(k)
}

// Exec schedules fn to run after the CPU has been held for cost, queueing
// behind earlier work. It returns the completion time.
func (c *CPU) Exec(cost Duration, fn func()) Time {
	k, p := c.sim.newEvent(c.occupy(cost))
	p.kind, p.fn, p.cpu = evFunc, fn, c
	c.submit(k)
	return k.at
}

// ExecBytes is Exec for a cached func([]byte) callback: scheduling the
// completion does not allocate a closure.
func (c *CPU) ExecBytes(cost Duration, fn func([]byte), raw []byte) Time {
	k, p := c.sim.newEvent(c.occupy(cost))
	p.kind, p.bfn, p.raw, p.cpu = evBytes, fn, raw, c
	c.submit(k)
	return k.at
}

// Backlog reports the CPU's run queue: jobs submitted whose completion
// has not yet dispatched, the one in service included.
func (c *CPU) Backlog() int {
	n := len(c.lane) - c.head
	if c.inService {
		n++
	}
	return n
}

// Hold occupies the CPU for cost without a completion callback.
func (c *CPU) Hold(cost Duration) { c.Exec(cost, func() {}) }

// Utilization is the one busy-window computation every consumer
// shares: busy time over an observation window, clamped to [0, 1]
// (rounding in cost accounting can push a raw ratio a hair past 1).
// CPU.Utilization, Segment.Utilization, the experiments' utilization
// tables and the metrics plane's ab_bridge_cpu_utilization gauge all
// resolve to this definition, so a table and a scraped value can never
// disagree.
func Utilization(busy, elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Utilization returns Busy / elapsed, given the elapsed observation window.
func (c *CPU) Utilization(elapsed Duration) float64 {
	return Utilization(c.Busy, elapsed)
}

func (c *CPU) String() string {
	return fmt.Sprintf("cpu(busyUntil=%v)", Duration(c.busyUntil))
}
