// Sharded conservative parallel execution.
//
// A Coordinator partitions one simulation across N shard engines (each a
// *Sim with its own event heap, payload arena and virtual clock) plus one
// control engine that holds the events scheduled by experiment code. The
// design goal is byte-identical results to serial execution at any shard
// count, bought with conservative (Chandy–Misra–Bryant style) lookahead
// synchronization rather than rollback:
//
//   - Every component (NIC, Segment, CPU, node) is bound to exactly one
//     shard engine and is only ever touched from that shard's goroutine
//     while a window runs.
//   - A segment whose attached NICs span shards (a "cut" segment) lives in
//     the lowest-indexed attached shard (its owner). Transmissions from
//     remote NICs cross through a request channel (zero lookahead: a send
//     at virtual time t must be serialized onto the medium at exactly t),
//     and deliveries to remote NICs cross through a delivery channel whose
//     lookahead is the segment's minimum wire time plus propagation delay.
//     Because owners are always the lower shard, request edges point
//     strictly downward and delivery edges strictly upward: the constraint
//     graph has no zero-lookahead cycle, so the shard clocks pipeline
//     (shard i trails shard j>i by at most the cut lookahead) instead of
//     locking step.
//   - Cross messages are sequenced: each carries its generation time and
//     the sender engine's event sequence number, and a receiver folds them
//     into its heap in a fixed merge order keyed by (release time, source
//     shard, sequence) at deterministic points of its own event stream.
//     Wall-clock scheduling of goroutines therefore cannot change the
//     virtual outcome: two runs of the same sharded simulation execute the
//     same events in the same order.
//   - Control events (anything scheduled on the control engine — the Sim a
//     sharded topo.Net exposes) run under a global barrier: every shard is
//     run up to and including the control event's time and parked, clocks
//     are aligned, then the event executes alone and may safely touch any
//     component in any shard.
//
// Identity with serial execution is exact except for events scheduled by
// distinct causal paths at the exact same nanosecond across a cut, where
// the serial engine breaks the tie by global scheduling order and the
// sharded engine by (time, shard, sequence). The golden scenario suite
// pins that this never changes an observable result for every registered
// topology at 1, 2 and 4 shards.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/switchware/activebridge/internal/tracing"
)

// maxTime is the sentinel "no event" instant.
const maxTime = Time(math.MaxInt64)

// satAdd shifts t by a non-negative lookahead, saturating at maxTime so
// idle-shard sentinels never wrap.
func satAdd(t Time, d Duration) Time {
	if t >= maxTime-Time(d) {
		return maxTime
	}
	return t + Time(d)
}

// xmsg is one cross-shard message: a remote transmit request (processed at
// gen on the owner) or a frame delivery (scheduled at arrive on the
// remote). genAt/seq reproduce the serial scheduling position: for a
// delivery, the instant it was scheduled (= gen); for a request, the
// genAt of the remote event whose dispatch performed the send — the
// position the inline transmit would have held in a single serial queue.
type xmsg struct {
	gen    Time
	genAt  Time
	seq    uint64
	arrive Time // deliveries only
	nic    *NIC
	raw    []byte
	// trace is the frame's causal trace context, carried across the
	// shard boundary so the receiving engine dispatches under it.
	trace uint64
}

// xchan is a directed cross-shard channel. Requests flow from higher to
// lower shards (lookahead 0); deliveries flow from lower to higher shards
// (lookahead = min over the pair's cut segments of wire+propagation).
type xchan struct {
	src, dst  int
	req       bool
	lookahead Duration
	segs      []*Segment // cut segments contributing to lookahead

	// q[head:] are the pending messages, guarded by the coordinator mutex.
	q    []xmsg
	head int
	// headR caches the release key (gen + lookahead) of q[head] (maxTime
	// when empty) for lock-free peeking by the consumer.
	headR atomic.Int64
}

func (x *xchan) updateHeadR() {
	if x.head == len(x.q) {
		x.q = x.q[:0]
		x.head = 0
		x.headR.Store(int64(maxTime))
		return
	}
	x.headR.Store(int64(x.q[x.head].gen.Add(x.lookahead)))
}

// xport is the owner-shard proxy for a remote NIC attached to a cut
// segment: it holds the transmit queue and drain pacing (which must
// serialize against the segment's busyUntil with zero latency) on the
// segment's side of the cut. Statistics are copied back onto the NIC at
// every quiescent point.
type xport struct {
	nic *NIC
	seg *Segment
	sim *Sim // owner engine

	tx      txq
	drainFn func()
	sendFn  func([]byte)

	txFrames, txBytes, txDrops uint64
}

func newXport(nic *NIC, seg *Segment) *xport {
	p := &xport{nic: nic, seg: seg, sim: seg.sim}
	p.drainFn = p.drain
	p.sendFn = p.send
	return p
}

// send is NIC.Send executed owner-side at the remote's send instant,
// through the same transmit state machine a local NIC uses. It runs as
// a dispatched event, so the ambient curTrace is the frame's trace
// context carried over in the request xmsg.
func (p *xport) send(raw []byte) {
	accepted, start := p.tx.offer(raw, p.sim.curTrace, p.nic.TxQueueLimit)
	if !accepted {
		p.txDrops++
		if fn := p.nic.dropFn; fn != nil {
			// Owner-side notification: runs on the segment owner's
			// engine, which is why TxDropFunc's contract confines the
			// callback to state it alone writes.
			fn(p.nic, raw)
		}
		return
	}
	if start {
		p.drain()
	}
}

func (p *xport) drain() {
	ent, ok := p.tx.next()
	if !ok {
		return
	}
	p.txFrames++
	p.txBytes += uint64(len(ent.raw))
	// Transmit under the queued frame's trace context, as NIC.drain does.
	prev := p.sim.curTrace
	p.sim.curTrace = ent.trace
	done := p.seg.transmit(p.nic, ent.raw)
	p.sim.Schedule(done, p.drainFn)
	p.sim.curTrace = prev
}

// syncStats publishes the proxy's accounting onto the NIC's public fields
// (called at quiescent points only).
func (p *xport) syncStats() {
	p.nic.TxFrames = p.txFrames
	p.nic.TxBytes = p.txBytes
	p.nic.TxDrops = p.txDrops
}

func (p *xport) queueLen() int { return p.tx.backlog() }

// Coordinator owns a set of shard engines plus a control engine and runs
// them as one simulation.
type Coordinator struct {
	shards  []*Sim
	control *Sim

	mu   sync.Mutex
	cond *sync.Cond
	// blockedA counts shards parked on the condition variable; publishers
	// broadcast only when it is nonzero, keeping the uncontended fast path
	// free of the mutex.
	blockedA atomic.Int32

	// chans[src][dst] is the channel from shard src to shard dst (nil when
	// the pair shares no cut segment). in[dst] lists incoming channels in
	// source order, the deterministic merge order for equal keys.
	chans [][]*xchan
	in    [][]*xchan

	// nextLocal[i] is a conservative lower bound on the next instant shard
	// i could generate a cross message at, published by the shard itself.
	nextLocal []atomic.Int64

	// windowEnd is the current window's exclusive upper ordering key:
	// shards execute exactly the events ordered before it. For a window
	// bounded by a control event it is that event's key, so shard events
	// at the control instant run before or after the control event
	// according to their serial scheduling order.
	windowEnd eventKey
	running   bool
	haltedA   atomic.Bool

	// globalNow is the coordinated clock at quiescence (serial Run
	// semantics: time of the last executed event, or the deadline when the
	// whole simulation drained).
	globalNow Time

	// cap mirrors control.MaxEvents for the current run.
	cap       uint64
	capBase   uint64
	executedA atomic.Uint64

	quiesce []func()
	// quiesces counts quiescent points reached (completed run windows).
	quiesces uint64
	// lag[i] is the virtual time between shard i's last executed event
	// and the coordinated clock at the most recent quiescent point,
	// captured before the clocks are re-aligned. A shard that simply
	// ran out of local work contributes its idle span, so this is an
	// activity-staleness measure, not a bound on the conservative
	// synchronization (which aligns every clock at each quiescent
	// point).
	lag []Duration

	// ports are all remote-NIC proxies, for stat syncing at quiescence.
	ports []*xport
}

// NewCoordinator creates n shard engines plus the control engine. The
// control engine is what a sharded net exposes as its Sim: experiment
// code schedules on it (and on node handles) exactly as it would on a
// serial simulation.
func NewCoordinator(n int) *Coordinator {
	c := &Coordinator{
		chans:     make([][]*xchan, n),
		in:        make([][]*xchan, n),
		nextLocal: make([]atomic.Int64, n),
		lag:       make([]Duration, n),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < n; i++ {
		c.chans[i] = make([]*xchan, n)
		s := New()
		s.coord, s.shard, s.rank = c, i, int32(i)
		c.shards = append(c.shards, s)
	}
	c.control = New()
	c.control.coord, c.control.shard, c.control.rank = c, -1, -1
	return c
}

// Shard returns shard engine i; components assigned to shard i must be
// constructed against it.
func (c *Coordinator) Shard(i int) *Sim { return c.shards[i] }

// Control returns the control engine.
func (c *Coordinator) Control() *Sim { return c.control }

// Shards reports the number of shard engines.
func (c *Coordinator) Shards() int { return len(c.shards) }

// OnQuiesce registers fn to run (single-threaded) at every quiescent
// point: after each Run window, before control returns to the caller.
// topo uses it to merge per-shard log buffers deterministically.
func (c *Coordinator) OnQuiesce(fn func()) { c.quiesce = append(c.quiesce, fn) }

// linkCut registers seg (owned by its engine's shard) as a cut segment
// with a remote NIC in shard remote, creating the request and delivery
// channels for the pair if needed. Called from Segment.Attach.
func (c *Coordinator) linkCut(seg *Segment, remote int) {
	owner := seg.sim.shard
	if owner == remote {
		return
	}
	if owner > remote {
		// Ownership is lowest-attached-shard by construction (see
		// Segment.Attach); a higher owner would create a zero-lookahead
		// cycle in the constraint graph.
		panic(fmt.Sprintf("netsim: cut segment %s owned by shard %d with remote %d", seg.Name, owner, remote))
	}
	// Delivery channel owner -> remote.
	d := c.chans[owner][remote]
	if d == nil {
		d = &xchan{src: owner, dst: remote}
		d.headR.Store(int64(maxTime))
		c.chans[owner][remote] = d
		c.in[remote] = append(c.in[remote], d)
	}
	d.segs = append(d.segs, seg)
	// Request channel remote -> owner (zero lookahead).
	r := c.chans[remote][owner]
	if r == nil {
		r = &xchan{src: remote, dst: owner, req: true}
		r.headR.Store(int64(maxTime))
		c.chans[remote][owner] = r
		c.in[owner] = append(c.in[owner], r)
	}
}

// refreshLookahead recomputes every delivery channel's lookahead from its
// cut segments' current rate and propagation (they are topology
// constants, but only fixed once the graph is fully built).
func (c *Coordinator) refreshLookahead() {
	for _, row := range c.chans {
		for _, ch := range row {
			if ch == nil || ch.req {
				continue
			}
			la := Duration(math.MaxInt64)
			for _, seg := range ch.segs {
				if l := MinWireLatency(seg.Bps, seg.Propagation); l < la {
					la = l
				}
			}
			if la < 1 {
				la = 1 // a cut with zero latency cannot pipeline; keep 1ns to stay conservative
			}
			ch.lookahead = la
			ch.updateHeadR()
		}
	}
}

// postRequest ships a remote NIC's transmit onto its segment's owner
// shard, to be serialized onto the medium at exactly the send instant.
func (c *Coordinator) postRequest(n *NIC, raw []byte, trace uint64) {
	src := n.sim
	src.nextID++
	m := xmsg{gen: src.now, genAt: src.curGenAt, seq: src.nextID, nic: n, raw: raw, trace: trace}
	c.post(c.chans[src.shard][n.xport.sim.shard], m)
}

// postDelivery ships a frame delivery to a remote NIC under the
// ambient trace context of the transmitting event.
func (c *Coordinator) postDelivery(seg *Segment, n *NIC, arrive Time, raw []byte) {
	src := seg.sim
	src.nextID++
	m := xmsg{gen: src.now, genAt: src.now, seq: src.nextID, arrive: arrive, nic: n, raw: raw, trace: src.curTrace}
	if src.trc != nil {
		src.trc.Emit(tracing.Event{
			VT: int64(src.now), Trace: src.curTrace, Kind: tracing.KindXShard,
			Node: n.Name, Name: "delivery->remote",
		})
	}
	c.post(c.chans[src.shard][n.sim.shard], m)
}

func (c *Coordinator) post(ch *xchan, m xmsg) {
	c.mu.Lock()
	wasEmpty := ch.head == len(ch.q)
	ch.q = append(ch.q, m)
	if wasEmpty {
		ch.headR.Store(int64(m.gen.Add(ch.lookahead)))
	}
	if c.blockedA.Load() > 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// horizon computes shard s's window horizon: the earliest instant it
// might still execute (and hence send) at within the current window —
// its heap head if that is ordered before the window key, or a pending
// inbound message. Events at or past the window key contribute nothing:
// they cannot run this window, so they cannot send this window.
func (c *Coordinator) horizon(s *Sim) Time {
	nl := maxTime
	if k, ok := s.peekKey(); ok && k.before(c.windowEnd) {
		nl = k.at
	}
	for _, ch := range c.in[s.shard] {
		if r := Time(ch.headR.Load()); r < nl {
			nl = r
		}
	}
	return nl
}

// publish refreshes shard s's advertised window horizon.
func (c *Coordinator) publish(s *Sim) {
	nl := c.horizon(s)
	prev := c.nextLocal[s.shard].Swap(int64(nl))
	if Time(prev) != nl && c.blockedA.Load() > 0 {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// lowWaters computes the conservative fixpoint: lw[i] is a lower bound on
// the next instant shard i can execute at within the current window,
// folding each shard's published horizon with what could still reach it
// over incoming channels. Read-only over atomics; callers may hold the
// mutex but need not.
//
// Read order matters: nextLocal is loaded before channel heads so that a
// message posted between a sender's clock advance and our read is never
// missed optimistically (both stores are sequentially consistent, and the
// sender stores the channel head before advancing nextLocal past it).
func (c *Coordinator) lowWaters(lw []Time) {
	n := len(c.shards)
	for i := 0; i < n; i++ {
		lw[i] = Time(c.nextLocal[i].Load())
	}
	for i := 0; i < n; i++ {
		for _, ch := range c.in[i] {
			if r := Time(ch.headR.Load()); r < lw[i] {
				lw[i] = r
			}
		}
	}
	// Propagate over channel edges to a fixpoint (the graph is tiny).
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			for _, ch := range c.in[i] {
				b := satAdd(lw[ch.src], ch.lookahead)
				if b < lw[i] {
					lw[i] = b
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// bound returns the strict execution bound for shard s given the
// lowWaters fixpoint: s may execute an event at t only if t < bound.
func (c *Coordinator) bound(lw []Time, s int) Time {
	b := maxTime
	for _, ch := range c.in[s] {
		if x := satAdd(lw[ch.src], ch.lookahead); x < b {
			b = x
		}
	}
	return b
}

// drainInto folds every pending cross message into shard s's heap. Fold
// timing is irrelevant to the outcome: each message carries its serial
// ordering key (execution instant, scheduling instant, source rank,
// source sequence), so wherever the wall clock interleaves arrival, the
// heap orders it exactly where the serial engine would have. Execution
// safety is what the conservative bound guarantees separately: a message
// that has not yet arrived can only be for an instant at or beyond the
// bound. Returns whether anything was inserted.
func (c *Coordinator) drainInto(s *Sim) bool {
	pending := false
	for _, ch := range c.in[s.shard] {
		if Time(ch.headR.Load()) != maxTime {
			pending = true
			break
		}
	}
	if !pending {
		return false
	}
	c.mu.Lock()
	inserted := false
	for _, ch := range c.in[s.shard] {
		for ch.head < len(ch.q) {
			m := ch.q[ch.head]
			ch.q[ch.head] = xmsg{}
			ch.head++
			idx, p := s.queue.alloc(m.trace)
			at := m.arrive
			if ch.req {
				// Execute owner-side at the remote's send instant, ordered
				// as the remote's generating event would have been.
				at = m.gen
				p.kind, p.bfn, p.raw, p.cpu = evBytes, m.nic.xport.sendFn, m.raw, nil
			} else {
				p.kind, p.nic, p.raw = evDeliver, m.nic, m.raw
			}
			s.queue.push(eventKey{at: at, genAt: m.genAt, seq: m.seq, eventRef: eventRef{src: int32(ch.src), idx: idx}})
			inserted = true
		}
		ch.updateHeadR()
	}
	if inserted {
		// The folded entries changed this shard's frontier; republish so
		// neighbors' fixpoints see the heap head instead of a stale
		// channel key.
		c.publishLocked(s)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	return inserted
}

// step tries to advance shard s by one action (fold pending messages or
// execute one event). It returns false when s is blocked on a neighbor or
// done with the window.
func (c *Coordinator) step(s *Sim, lw []Time, w eventKey) bool {
	c.drainInto(s)
	k, ok := s.peekKey()
	if !ok || !k.before(w) {
		return false
	}
	c.lowWaters(lw)
	if k.at >= c.bound(lw, s.shard) {
		return false
	}
	c.nextLocal[s.shard].Store(int64(k.at))
	s.queue.pop()
	s.now, s.lastAt, s.curGenAt = k.at, k.at, k.genAt
	n := uint64(s.dispatch(k.idx))
	s.executed += n
	if c.cap != 0 && c.executedA.Add(n)-c.capBase >= c.cap {
		c.halt()
	}
	c.publish(s)
	return true
}

// windowLoop runs shard s's events strictly before the window key,
// respecting the conservative bounds. It returns when no event ordered
// before the window key can ever become executable for this shard.
func (c *Coordinator) windowLoop(s *Sim) {
	w := c.windowEnd
	lw := make([]Time, len(c.shards))
	for {
		if c.haltedA.Load() {
			return
		}
		if c.step(s, lw, w) {
			continue
		}
		// Blocked, or possibly done with the window: decide under the lock.
		c.mu.Lock()
		for {
			if c.haltedA.Load() {
				c.mu.Unlock()
				return
			}
			c.publishLocked(s)
			c.lowWaters(lw)
			if c.windowDone(s, lw, w) {
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			}
			if c.stepReady(s, lw, w) {
				c.mu.Unlock()
				break
			}
			// Re-check after raising the blocked count so a publisher that
			// advanced between our check and the wait cannot be missed.
			c.blockedA.Add(1)
			c.lowWaters(lw)
			if c.windowDone(s, lw, w) || c.stepReady(s, lw, w) || c.haltedA.Load() {
				c.blockedA.Add(-1)
				continue
			}
			c.cond.Wait()
			c.blockedA.Add(-1)
		}
	}
}

// windowDone reports that shard s can never again execute an event
// ordered before the window key: its own head (after draining) is at or
// past the key, its channels are empty, and every neighbor's remaining
// in-window activity is strictly past the window instant (so anything it
// still sends is ordered into the next window).
func (c *Coordinator) windowDone(s *Sim, lw []Time, w eventKey) bool {
	if k, ok := s.peekKey(); ok && k.before(w) {
		return false
	}
	for _, ch := range c.in[s.shard] {
		if ch.head < len(ch.q) {
			return false
		}
	}
	return c.bound(lw, s.shard) > w.at
}

// stepReady reports whether step would make progress given the fixpoint.
func (c *Coordinator) stepReady(s *Sim, lw []Time, w eventKey) bool {
	for _, ch := range c.in[s.shard] {
		if ch.head < len(ch.q) {
			return true // draining is progress
		}
	}
	k, ok := s.peekKey()
	return ok && k.before(w) && k.at < c.bound(lw, s.shard)
}

// publishLocked is publish with the coordinator mutex already held.
func (c *Coordinator) publishLocked(s *Sim) {
	c.nextLocal[s.shard].Store(int64(c.horizon(s)))
}

func (c *Coordinator) halt() {
	c.haltedA.Store(true)
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// runWindow executes every shard concurrently over the events ordered
// strictly before w.
func (c *Coordinator) runWindow(w eventKey) {
	c.windowEnd = w
	// Fast path: nothing to do anywhere.
	work := false
	for _, s := range c.shards {
		if k, ok := s.peekKey(); ok && k.before(w) {
			work = true
			break
		}
	}
	if !work {
		for _, row := range c.chans {
			for _, ch := range row {
				if ch != nil && ch.head < len(ch.q) {
					work = true
				}
			}
		}
	}
	if !work {
		return
	}
	for _, s := range c.shards {
		c.publish(s)
	}
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *Sim) {
			defer wg.Done()
			c.windowLoop(s)
		}(s)
	}
	wg.Wait()
}

// Run executes the coordinated simulation until the control and shard
// queues hold nothing at or before the deadline (or Stop/MaxEvents ends
// the run early), returning the number of events executed. It reproduces
// serial Sim.Run clock semantics: at return every engine's clock is the
// time of the last executed event, or the deadline when the simulation
// drained completely.
func (c *Coordinator) Run(until Time) uint64 {
	return c.run(until)
}

// RunAll executes until every queue and channel is empty.
func (c *Coordinator) RunAll() uint64 { return c.run(maxTime - 1) }

func (c *Coordinator) run(until Time) uint64 {
	if c.running {
		panic("netsim: reentrant Run on a sharded simulation (Run called from inside an event)")
	}
	c.running = true
	defer func() { c.running = false }()

	if c.control.halted {
		return 0 // Stop is sticky, as on a serial Sim
	}
	c.refreshLookahead()
	c.haltedA.Store(false)
	c.cap = c.control.MaxEvents
	c.capBase = c.executedA.Load()
	start := c.executedTotal()

	for {
		// The next control event bounds the shard window: shard events
		// ordered before it (including same-instant events scheduled
		// earlier in virtual time) run first, then the control event
		// executes alone at a global barrier.
		w := eventKey{at: until, genAt: maxTime, seq: ^uint64(0), eventRef: eventRef{src: int32(len(c.shards))}}
		hasCtl := false
		if k, ok := c.control.peekKey(); ok && k.at <= until {
			w, hasCtl = k, true
		}
		c.runWindow(w)
		if c.haltedA.Load() {
			break
		}
		if !hasCtl {
			break
		}
		// Barrier: align every clock (and scheduling position) to the
		// control event, then run it while everything is quiescent.
		for _, s := range c.shards {
			if s.now < w.at {
				s.now = w.at
			}
			s.curGenAt = w.genAt
		}
		c.control.queue.pop()
		c.control.now, c.control.lastAt, c.control.curGenAt = w.at, w.at, w.genAt
		n := uint64(c.control.dispatch(w.idx))
		c.control.executed += n
		c.executedA.Add(n)
		if c.cap != 0 && c.executedTotal()-start >= c.cap {
			break
		}
		if c.control.halted {
			break
		}
	}

	// Quiescent clock alignment (serial semantics).
	now := c.globalNow
	for _, s := range c.shards {
		if s.lastAt > now {
			now = s.lastAt
		}
	}
	if c.control.lastAt > now {
		now = c.control.lastAt
	}
	if c.Pending() == 0 && now < until && !c.control.halted && !c.haltedA.Load() && until != maxTime-1 {
		now = until
	}
	c.globalNow = now
	for i, s := range c.shards {
		// Captured before re-alignment: how stale this shard's last
		// executed event was against the coordinated clock.
		c.lag[i] = now.Sub(s.lastAt)
		s.now = now
		s.curTrace = 0
	}
	c.control.now = now
	c.control.curTrace = 0

	for _, p := range c.ports {
		p.syncStats()
	}
	c.quiesces++
	for _, fn := range c.quiesce {
		fn()
	}
	return c.executedTotal() - start
}

// ShardStats is a quiescent-point observation of one shard engine, the
// raw material of the per-shard telemetry gauges. Read it only from
// quiescence callbacks (Coordinator.OnQuiesce) or between Run calls.
type ShardStats struct {
	// Clock is the shard's virtual clock (aligned at quiescence).
	Clock Time
	// LastEventAt is the instant of the shard's last executed event.
	LastEventAt Time
	// LastEventAge is Clock - LastEventAt as captured before the
	// quiescent clock alignment: how stale the shard's last activity
	// was when the run drained. It includes plain idleness (a shard
	// whose local workload finished early ages for the rest of the
	// run), so read it as an activity measure, not a synchronization
	// bound.
	LastEventAge Duration
	// Executed counts events this shard has executed since creation.
	Executed uint64
	// HeapDepth is the shard's event-heap depth (jobs parked in CPU
	// lanes are not heap entries; see CPU.Backlog).
	HeapDepth int
	// MailboxBacklog counts cross-shard messages queued toward this
	// shard that have not yet been folded into its heap.
	MailboxBacklog int
	// PortBacklog counts frames queued in the remote-NIC transmit
	// proxies (xports) this shard owns.
	PortBacklog int
}

// ShardStats returns the quiescent-point observation of shard i.
func (c *Coordinator) ShardStats(i int) ShardStats {
	s := c.shards[i]
	st := ShardStats{
		Clock:        s.now,
		LastEventAt:  s.lastAt,
		LastEventAge: c.lag[i],
		Executed:     s.executed,
		HeapDepth:    s.queue.len(),
	}
	c.mu.Lock()
	for _, ch := range c.in[i] {
		st.MailboxBacklog += len(ch.q) - ch.head
	}
	c.mu.Unlock()
	for _, p := range c.ports {
		if p.sim.shard == i {
			st.PortBacklog += p.queueLen()
		}
	}
	return st
}

// Quiesces reports how many quiescent points the coordinator has
// reached (completed Run calls).
func (c *Coordinator) Quiesces() uint64 { return c.quiesces }

func (c *Coordinator) executedTotal() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.executed
	}
	return n + c.control.executed
}

// Pending reports events not yet executed (heap entries and jobs parked
// in CPU lanes) plus undelivered cross messages.
func (c *Coordinator) Pending() int {
	n := c.control.queue.len() + c.control.parked
	for _, s := range c.shards {
		n += s.queue.len() + s.parked
	}
	c.mu.Lock()
	for _, row := range c.chans {
		for _, ch := range row {
			if ch != nil {
				n += len(ch.q) - ch.head
			}
		}
	}
	c.mu.Unlock()
	return n
}

// Stop halts the coordinated run after the current event.
func (c *Coordinator) Stop() {
	c.control.halted = true
	c.halt()
}
