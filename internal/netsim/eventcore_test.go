package netsim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/switchware/activebridge/internal/fault/frand"
)

// The event core is checked differentially: one seeded random program is
// interpreted twice, against the engine and against a reference model
// that keeps every pending event in one flat list and sorts it by the
// full (at, genAt, src, seq) key — no heap, no lanes, no slab — and the
// two dispatch transcripts must be equal. The program is a byte string;
// every choice it makes (what a fired event schedules next, how the
// driver slices the run) is the next byte, so it behaves identically on
// both sides for as long as the dispatch orders agree, and the fuzzer can
// mutate it meaningfully.

// coreProgram is the shared instruction stream. Each side of the
// differential reads it through its own cursor.
type coreProgram struct {
	data   []byte
	pos    int
	nextID uint32
	fseq   [4]uint64 // per foreign-source sequence numbers
}

// next returns the next program byte, or 0 once the program has run out
// (from then on fired events schedule nothing and the run drains).
func (p *coreProgram) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

func (p *coreProgram) done() bool { return p.pos >= len(p.data) }

const coreCPUs = 3

// Delays and costs come from small tables heavy in zeros and repeats, so
// same-instant ties (between plain events, CPU completions and foreign
// keys alike) are the common case rather than the rare one.
var (
	coreDelays = [8]Duration{0, 0, 1, 1, 2, 5, 40, 300}
	coreCosts  = [8]Duration{0, 0, 1, 3, 3, 10, 100, 1000}
)

// coreSide is what a program can do to an event core. deliveries is how
// many times the event fires when it dispatches (a batched segment
// delivery fires once per receiving NIC, twice with dup).
type coreSide interface {
	now() Time
	// plain schedules an ordinary event, chosen by how: a closure or a
	// segment delivery with one, two or four receptions.
	plain(at Time, id uint32, how byte)
	// exec submits a job to a CPU.
	exec(cpu int, cost Duration, id uint32, bytes bool)
	// foreign inserts an event under a key minted elsewhere, as
	// Coordinator.drainInto does for a cross-shard message.
	foreign(at, genAt Time, src int32, seq uint64, id uint32, req bool)
}

// issue performs up to n scheduling operations read from the program.
// An operation is two bytes, op and arg (a CPU burst reads one more per
// extra job); the op* builders below spell out the bit fields.
func (p *coreProgram) issue(c coreSide, n int) {
	for ; n > 0 && !p.done(); n-- {
		op, arg := p.next(), p.next()
		id := p.nextID
		p.nextID++
		switch op % 8 {
		case 0, 1, 2:
			c.plain(c.now().Add(coreDelays[arg%8]), id, arg/8)
		case 3, 4, 5, 6:
			// CPU work dominates, in bursts: the saturated-bridge shape.
			cpu := int(arg/8%4) % coreCPUs
			c.exec(cpu, coreCosts[arg%8], id, arg&32 != 0)
			for burst := int(op / 8 % 4); burst > 0 && !p.done(); burst-- {
				id = p.nextID
				p.nextID++
				c.exec(cpu, coreCosts[p.next()%8], id, burst&1 != 0)
			}
		case 7:
			at := c.now().Add(coreDelays[arg%8])
			// The scheduling instant on the other engine: anywhere from
			// well before this engine's clock up to the execution instant.
			genAt := at - Time(coreDelays[arg/8%8])
			srcs := [4]int32{-1, 1, 2, 3}
			si := int(op / 8 % 4)
			p.fseq[si]++
			c.foreign(at, genAt, srcs[si], p.fseq[si], id, arg&64 != 0)
		}
	}
}

// Builders for hand-written programs. A driver byte picks what happens
// between runs; an event that fires reads one byte, the number of
// operations it issues, and then those operations.
func drvIssue(n int) byte           { return byte(4 * (n - 1)) }   // n operations from outside the loop
func drvRun(delay int) byte         { return byte(1 + 4*delay) }   // Run to now + 3*coreDelays[delay]
func drvCap(max int) byte           { return byte(2 + 4*(max-1)) } // Run under MaxEvents = max
func drvFar() byte                  { return 3 }                   // Run to now + 2000
func opPlain(delay, how int) []byte { return []byte{0, byte(delay + 8*how)} }
func opExec(cpu, cost int, burstCosts ...int) []byte {
	out := []byte{byte(3 + 8*len(burstCosts)), byte(cost + 8*cpu)}
	for _, c := range burstCosts {
		out = append(out, byte(c))
	}
	return out
}
func opForeign(delay, genBack, src int) []byte {
	return []byte{byte(7 + 8*src), byte(delay + 8*genBack)}
}

func program(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case byte:
			out = append(out, v)
		case int:
			out = append(out, byte(v))
		case []byte:
			out = append(out, v...)
		}
	}
	return out
}

// fired is one transcript entry: event id, which of its deliveries, and
// the clock it fired at.
type fired struct {
	id  uint32
	sub int
	at  Time
}

// refEvent is a pending event of the reference model.
type refEvent struct {
	at, genAt  Time
	src        int32
	seq        uint64
	id         uint32
	deliveries int
	cpu        int // -1 unless a CPU completion
}

// refCore is the reference model: a flat list, sorted on demand by the
// full key, with CPUs reduced to their busyUntil arithmetic.
type refCore struct {
	prog     *coreProgram
	clock    Time
	seq      uint64
	pending  []refEvent
	busy     [coreCPUs]Time
	backlog  [coreCPUs]int
	executed uint64
	log      []fired
}

func (r *refCore) now() Time { return r.clock }

func (r *refCore) local(at Time, id uint32, deliveries, cpu int) {
	if at < r.clock {
		at = r.clock
	}
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, genAt: r.clock, src: 0, seq: r.seq, id: id, deliveries: deliveries, cpu: cpu})
}

func (r *refCore) plain(at Time, id uint32, how byte) {
	r.local(at, id, plainDeliveries(how), -1)
}

func (r *refCore) exec(cpu int, cost Duration, id uint32, _ bool) {
	start := r.clock
	if r.busy[cpu] > start {
		start = r.busy[cpu]
	}
	r.busy[cpu] = start.Add(cost)
	r.backlog[cpu]++
	r.local(r.busy[cpu], id, 1, cpu)
}

func (r *refCore) foreign(at, genAt Time, src int32, seq uint64, id uint32, _ bool) {
	r.pending = append(r.pending, refEvent{at: at, genAt: genAt, src: src, seq: seq, id: id, deliveries: 1, cpu: -1})
}

// refBefore is the full-key order, written out independently of the
// engine's eventKey.before.
func refBefore(a, b *refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.genAt != b.genAt:
		return a.genAt < b.genAt
	case a.src != b.src:
		return a.src < b.src
	}
	return a.seq < b.seq
}

// run mirrors Sim.Run's contract: the pending event least in the full key
// order runs next, up to the deadline, stopping after the event that
// reaches the cap; a run that drains everything ends at the deadline.
// until == maxTime is RunAll: no deadline, and the clock stays put.
func (r *refCore) run(until Time, maxEvents uint64) {
	start := r.executed
	for len(r.pending) > 0 {
		min := 0
		for i := range r.pending {
			if refBefore(&r.pending[i], &r.pending[min]) {
				min = i
			}
		}
		e := r.pending[min]
		if e.at > until {
			break
		}
		r.pending = append(r.pending[:min], r.pending[min+1:]...)
		r.clock = e.at
		if e.cpu >= 0 {
			r.backlog[e.cpu]--
		}
		for sub := 0; sub < e.deliveries; sub++ {
			r.log = append(r.log, fired{e.id, sub, r.clock})
			r.prog.issue(r, int(r.prog.next()%4))
		}
		r.executed += uint64(e.deliveries)
		if maxEvents != 0 && r.executed-start >= maxEvents {
			break
		}
	}
	if until != maxTime && r.clock < until && len(r.pending) == 0 {
		r.clock = until
	}
}

// heapEntries is what the engine's heap must hold: every pending event
// that is not a CPU completion, plus one entry per CPU with work.
func (r *refCore) heapEntries() int {
	n := 0
	for _, e := range r.pending {
		if e.cpu < 0 {
			n++
		}
	}
	for _, b := range r.backlog {
		if b > 0 {
			n++
		}
	}
	return n
}

// plainDeliveries is how many times a plain event of the given flavour
// fires: flavour 3 is a segment delivery to the one other NIC of a
// two-NIC segment, and flavours 4 and 5 reach both other NICs of the
// three-NIC test segment, twice each with dup.
func plainDeliveries(how byte) int {
	switch how % 6 {
	case 4:
		return 2
	case 5:
		return 4
	}
	return 1
}

// simCore drives the real engine.
type simCore struct {
	prog *coreProgram
	sim  *Sim
	cpus [coreCPUs]*CPU
	seg  *Segment
	nics [3]*NIC
	pair *Segment // two NICs: every delivery on it has one receiver
	pnic [2]*NIC
	bfn  func([]byte)
	subs map[uint32]int
	log  []fired
}

func newSimCore(prog *coreProgram) *simCore {
	c := &simCore{prog: prog, sim: New(), subs: map[uint32]int{}}
	for i := range c.cpus {
		c.cpus[i] = NewCPU(c.sim)
	}
	attach := func(g *Segment, i int) *NIC {
		n := NewNIC(c.sim, fmt.Sprintf("n%d", i), mac(byte(i+1)))
		n.Promiscuous = true
		n.SetRecv(func(_ *NIC, raw []byte) { c.fire(binary.LittleEndian.Uint32(raw)) })
		g.Attach(n)
		return n
	}
	c.seg = NewSegment(c.sim, "lan")
	for i := range c.nics {
		c.nics[i] = attach(c.seg, i)
	}
	c.pair = NewSegment(c.sim, "pair")
	for i := range c.pnic {
		c.pnic[i] = attach(c.pair, len(c.nics)+i)
	}
	c.bfn = func(raw []byte) { c.fire(binary.LittleEndian.Uint32(raw)) }
	return c
}

func (c *simCore) now() Time { return c.sim.Now() }

func (c *simCore) fire(id uint32) {
	c.log = append(c.log, fired{id, c.subs[id], c.sim.Now()})
	c.subs[id]++
	c.prog.issue(c, int(c.prog.next()%4))
}

func idBytes(id uint32) []byte { return binary.LittleEndian.AppendUint32(nil, id) }

func (c *simCore) plain(at Time, id uint32, how byte) {
	switch how % 6 {
	case 0, 1, 2:
		c.sim.Schedule(at, func() { c.fire(id) })
	case 3:
		c.sim.scheduleDeliverSeg(at, c.pair, c.pnic[id%2], idBytes(id), false)
	case 4:
		c.sim.scheduleDeliverSeg(at, c.seg, c.nics[id%3], idBytes(id), false)
	case 5:
		c.sim.scheduleDeliverSeg(at, c.seg, c.nics[id%3], idBytes(id), true)
	}
}

func (c *simCore) exec(cpu int, cost Duration, id uint32, bytes bool) {
	if bytes {
		c.cpus[cpu].ExecBytes(cost, c.bfn, idBytes(id))
	} else {
		c.cpus[cpu].Exec(cost, func() { c.fire(id) })
	}
}

// foreign inserts a pre-keyed event exactly as Coordinator.drainInto
// folds in a cross-shard request (req) or delivery.
func (c *simCore) foreign(at, genAt Time, src int32, seq uint64, id uint32, req bool) {
	idx, p := c.sim.queue.alloc(0)
	if req {
		p.kind, p.bfn, p.raw, p.cpu = evBytes, c.bfn, idBytes(id), nil
	} else {
		p.kind, p.nic, p.raw = evDeliver, c.nics[id%3], idBytes(id)
	}
	c.sim.queue.push(eventKey{at: at, genAt: genAt, seq: seq, eventRef: eventRef{src: src, idx: idx}})
}

// runEventCoreProgram interprets data on both sides and reports the first
// disagreement. The driver's own choices come from the head of the
// program, so both sides slice the run identically.
func runEventCoreProgram(t *testing.T, data []byte) {
	t.Helper()
	refProg, simProg := &coreProgram{data: data}, &coreProgram{data: data}
	ref := &refCore{prog: refProg}
	sc := newSimCore(simProg)

	checked := 0 // transcript entries already compared
	check := func(when string) {
		t.Helper()
		for ; checked < len(sc.log) && checked < len(ref.log); checked++ {
			if sc.log[checked] != ref.log[checked] {
				t.Fatalf("%s: dispatch %d = %+v, reference %+v", when, checked, sc.log[checked], ref.log[checked])
			}
		}
		if len(sc.log) != len(ref.log) {
			t.Fatalf("%s: engine fired %d events, reference %d", when, len(sc.log), len(ref.log))
		}
		if sc.sim.Now() != ref.clock {
			t.Fatalf("%s: Now = %v, reference %v", when, sc.sim.Now(), ref.clock)
		}
		if sc.sim.Executed() != ref.executed {
			t.Fatalf("%s: Executed = %d, reference %d", when, sc.sim.Executed(), ref.executed)
		}
		if got, want := sc.sim.Pending(), len(ref.pending); got != want {
			t.Fatalf("%s: Pending = %d, reference holds %d events", when, got, want)
		}
		if got, want := sc.sim.QueueLen(), ref.heapEntries(); got != want {
			t.Fatalf("%s: QueueLen = %d, want %d (one entry per busy CPU plus every other event)", when, got, want)
		}
		for i, cpu := range sc.cpus {
			if cpu.Backlog() != ref.backlog[i] {
				t.Fatalf("%s: cpu%d Backlog = %d, reference %d", when, i, cpu.Backlog(), ref.backlog[i])
			}
		}
	}

	for step := 0; !refProg.done(); step++ {
		b := refProg.next()
		if sb := simProg.next(); sb != b {
			t.Fatalf("step %d: program cursors diverged", step)
		}
		when := fmt.Sprintf("step %d (driver byte %#x)", step, b)
		switch b % 4 {
		case 0: // schedule from outside the event loop
			n := int(b/4)%4 + 1
			refProg.issue(ref, n)
			simProg.issue(sc, n)
		case 1: // run to a deadline
			until := ref.clock.Add(coreDelays[(b/4)%8] * 3)
			ref.run(until, 0)
			sc.sim.MaxEvents = 0
			sc.sim.Run(until)
		case 2: // run under an event cap
			max, until := uint64(b/4)%7+1, ref.clock.Add(1<<30)
			ref.run(until, max)
			sc.sim.MaxEvents = max
			sc.sim.Run(until)
		case 3: // run to a far deadline
			until := ref.clock.Add(2000)
			ref.run(until, 0)
			sc.sim.MaxEvents = 0
			sc.sim.Run(until)
		}
		check(when)
	}
	ref.run(maxTime, 0)
	sc.sim.MaxEvents = 0
	sc.sim.RunAll()
	check("final drain")
	if sc.sim.Pending() != 0 {
		t.Fatalf("Pending = %d after RunAll", sc.sim.Pending())
	}
	// Every slot is back on the free list holding no per-event reference:
	// neither the heap nor a CPU lane retains a dispatched frame.
	if got, want := len(sc.sim.queue.free), len(sc.sim.queue.payloads); got != want {
		t.Fatalf("%d of %d payload slots free after drain", got, want)
	}
	for i := range sc.sim.queue.payloads {
		if p := &sc.sim.queue.payloads[i]; p.raw != nil || p.fn != nil {
			t.Fatalf("payload slot %d still references a dispatched event", i)
		}
	}
}

// coreSeedProgram expands a seed into a program (splitmix64 bytes).
func coreSeedProgram(seed uint64, n int) []byte {
	rnd := frand.New(seed)
	out := make([]byte, 0, n+8)
	for len(out) < n {
		out = binary.LittleEndian.AppendUint64(out, rnd.Uint64())
	}
	return out[:n]
}

// coreHandPrograms are the shapes worth pinning by hand; the seeded
// programs reach them too, but not by name.
var coreHandPrograms = map[string][]byte{
	// Four zero-cost jobs on one CPU at one instant: every completion
	// ties on (at, genAt, src) with its neighbours and with a plain event.
	"zero-cost burst": program(
		drvIssue(2), opExec(0, 0, 0, 0, 0), opPlain(0, 0),
		drvFar()),
	// Completions that submit more work to their own, still busy, CPU and
	// to an idle one.
	"resubmit from completion": program(
		drvIssue(1), opExec(1, 5, 5, 5),
		drvFar(),
		2, opExec(1, 3), opExec(2, 0), // first completion: two more jobs
		1, opExec(1, 0), // second: one zero-cost job behind the backlog
		0, 1, opExec(1, 2), 0, 0, 0),
	// Foreign keys at the instant of local events and CPU completions,
	// generated before, at and after the local scheduling instant, from
	// ranks below and above the local one.
	"foreign ties": program(
		drvIssue(4), opExec(0, 2), opPlain(2, 0), opForeign(2, 0, 0), opForeign(2, 2, 1),
		drvRun(2),
		drvIssue(3), opForeign(0, 0, 3), opForeign(0, 3, 0), opPlain(0, 2),
		drvFar()),
	// Event caps landing inside a CPU backlog, then a deadline inside it.
	"cap inside backlog": program(
		drvIssue(2), opExec(0, 3, 3, 3, 3), opPlain(5, 0),
		drvCap(2), drvCap(1), drvRun(3), drvCap(7), drvFar()),
	// A cap of 1 whose head event is a dup batch: the batch runs whole,
	// Executed advances by 4 and the run stops before the plain event
	// due at the same instant.
	"cap inside a batch": program(
		drvIssue(2), opPlain(0, 5), opPlain(0, 0),
		drvCap(1), 0, 0, 0, 0, // four receptions, each issuing nothing
		drvFar(), 0),
}

func FuzzEventCoreOrder(f *testing.F) {
	for _, p := range coreHandPrograms {
		f.Add(p)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(coreSeedProgram(seed, 64+int(seed)*40))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("program longer than the reference model is worth sorting")
		}
		runEventCoreProgram(t, data)
	})
}

// TestEventCoreDifferential runs longer seeded programs than the fuzz
// corpus carries.
func TestEventCoreDifferential(t *testing.T) {
	for name, p := range coreHandPrograms {
		t.Run(name, func(t *testing.T) { runEventCoreProgram(t, p) })
	}
	for seed := uint64(100); seed < 140; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEventCoreProgram(t, coreSeedProgram(seed, 1500))
		})
	}
}

// TestCPULaneHoldsOneHeapEntry pins the structure directly: however deep
// a CPU's run queue, the heap holds only the job in service, while
// Pending and Backlog still count every job.
func TestCPULaneHoldsOneHeapEntry(t *testing.T) {
	const jobs = 200 // deep enough to cross the lane's compaction threshold
	s := New()
	c := NewCPU(s)
	var done []int
	for i := 0; i < jobs; i++ {
		i := i
		c.Exec(Duration(10), func() { done = append(done, i) })
	}
	if s.QueueLen() != 1 || s.Pending() != jobs || c.Backlog() != jobs {
		t.Fatalf("after %d submissions: QueueLen=%d Pending=%d Backlog=%d, want 1/%d/%d",
			jobs, s.QueueLen(), s.Pending(), c.Backlog(), jobs, jobs)
	}
	for k := 1; k < jobs; k++ {
		s.MaxEvents = 1
		s.Run(maxTime)
		if s.QueueLen() != 1 || s.Pending() != jobs-k || c.Backlog() != jobs-k {
			t.Fatalf("after %d completions: QueueLen=%d Pending=%d Backlog=%d, want 1/%d/%d",
				k, s.QueueLen(), s.Pending(), c.Backlog(), jobs-k, jobs-k)
		}
		if s.Now() != Time(10*k) {
			t.Fatalf("completion %d at %v, want %v", k, s.Now(), Time(10*k))
		}
	}
	s.MaxEvents = 0
	s.RunAll()
	if s.QueueLen() != 0 || s.Pending() != 0 || c.Backlog() != 0 {
		t.Fatalf("after drain: QueueLen=%d Pending=%d Backlog=%d", s.QueueLen(), s.Pending(), c.Backlog())
	}
	for i, v := range done {
		if v != i {
			t.Fatalf("completion order %v..., want submission order", done[:i+1])
		}
	}
	// An idle CPU goes straight back to the heap.
	c.Exec(5, func() {})
	if s.QueueLen() != 1 || c.Backlog() != 1 {
		t.Fatalf("idle submit: QueueLen=%d Backlog=%d, want 1/1", s.QueueLen(), c.Backlog())
	}
}

// TestMaxEventsStopsInsideBacklog checks that an event cap stops on the
// same event as if every parked job were a heap entry: the events run
// are exactly the first MaxEvents of the full key order, with other
// events interleaving between parked completions.
func TestMaxEventsStopsInsideBacklog(t *testing.T) {
	s := New()
	c := NewCPU(s)
	var got []string
	note := func(name string) func() { return func() { got = append(got, name) } }
	c.Exec(10, note("job@10"))
	c.Exec(10, note("job@20"))
	s.Schedule(20, note("plain@20")) // same instant as job@20, scheduled later: runs after it
	c.Exec(0, note("job@20+0"))      // zero cost: also at 20, scheduled later still
	c.Exec(10, note("job@30"))
	s.Schedule(15, note("plain@15"))

	s.MaxEvents = 4
	if n := s.Run(maxTime); n != 4 {
		t.Fatalf("Run executed %d events, want 4", n)
	}
	want := []string{"job@10", "plain@15", "job@20", "plain@20"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("capped run = %v, want %v", got, want)
	}
	if s.Now() != 20 || s.Pending() != 2 {
		t.Fatalf("stopped at Now=%v Pending=%d, want 20/2", s.Now(), s.Pending())
	}
	s.MaxEvents = 0
	s.RunAll()
	want = append(want, "job@20+0", "job@30")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("full run = %v, want %v", got, want)
	}
}

// TestCPUNegativeCostPanics pins the precondition the lane's ordering
// argument rests on.
func TestCPUNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost accepted")
		}
	}()
	NewCPU(New()).Exec(-1, func() {})
}
