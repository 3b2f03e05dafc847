// Package tracing is the deterministic causal tracing plane of the
// simulator: per-frame trace IDs propagated through NIC transmit
// queues, segment propagation, shard mailbox crossings, bridge demux
// and switchlet VM execution, with every event stamped in virtual
// time. Because trace IDs are minted from seeded per-NIC splitmix64
// streams (the same internal/fault/frand kernel the fault plane uses)
// and recording never touches virtual time, a traced run reproduces
// byte-for-byte at any shard count: the sampled transcript of a run at
// 4 shards is identical to the serial one.
//
// Two planes record concurrently:
//
//   - The sampled transcript: traces whose ID carries the sampled bit
//     (head-based Bernoulli decided when the trace is minted) append
//     their events to an engine-local buffer, merged and canonically
//     sorted at quiescent points. This is what the text renderer, the
//     Chrome trace-event export and the span-derived histograms see.
//
//   - The flight recorder: a fixed-size per-engine ring that records
//     the last FlightN events regardless of sampling. It is dumped
//     automatically on VM traps, verifier rejections at the netloader,
//     Manager rollbacks and invariant violations, giving a post-mortem
//     of what the engine was doing just before things went wrong.
//
// The package sits below netsim in the import graph (it imports only
// frand), so the engine can carry a tracer without cycles; everything
// above reaches it through netsim.Sim.
//
// Cost. When no tracer is installed the frame path pays one nil check
// per emit site and nothing else. With a tracer installed, every event
// — sampled or not — is one Event value stored into the flight ring:
// events carry operands (a Form, a name that already exists as a
// string, up to four integers), never formatted text, so a frame whose
// trace is not sampled costs no allocation. Text is produced by
// Event.Text only when someone reads an event: a transcript or flight
// dump being rendered, a Chrome export. A merge allocates nothing once
// the engine buffers are warm and its batch fits the transcript's
// current block (TestTracedMergeAllocBudget): Flush sorts each engine's
// buffer in place and merges them into the transcript's blocks, which
// are never reallocated once full. The only copy of the transcript is
// the one Transcript makes for its caller.
package tracing

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/switchware/activebridge/internal/fault/frand"
)

// Kind classifies a trace event. The declaration order is the pipeline
// order of a frame's life — send, transmit-queue drop, wire time,
// fault verdict, receive, shard crossing, bridge demux, VM execution,
// deopt, trap, forwarding verdict — and doubles as the canonical sort
// rank for same-instant events of one trace.
type Kind uint8

const (
	// KindSend marks a frame accepted into a NIC transmit queue.
	KindSend Kind = iota
	// KindTxDrop marks a frame lost before the wire (queue overflow,
	// link down).
	KindTxDrop
	// KindWire is the span a frame occupies a segment: serialization
	// plus propagation, Dur = delivery time minus transmit start.
	KindWire
	// KindFault marks an injected impairment verdict (drop, corrupt,
	// duplicate) from the fault plane.
	KindFault
	// KindRx marks delivery into a receiver.
	KindRx
	// KindXShard marks a mailbox crossing between shard engines. The
	// crossing only exists on the sharded engine, so these events are
	// flight-recorder-only and never enter the sampled transcript.
	KindXShard
	// KindDemux marks the bridge's handler decision for a frame
	// (destination binding or default handler).
	KindDemux
	// KindVM is the switchlet handler execution span; Dur is the
	// frame's virtual VM cost, the operands carry steps and tier counts.
	KindVM
	// KindDeopt marks a deoptimization from quickened to wire code.
	KindDeopt
	// KindTrap marks a switchlet trap surfacing from the VM.
	KindTrap
	// KindVerdict is the bridge's final word on a frame: forwarded,
	// suppressed, or dropped for want of a handler.
	KindVerdict
	// KindMark is an out-of-band control-plane event: crash, restart,
	// verifier rejection, Manager rollback, invariant violation.
	KindMark

	kindCount
)

var kindNames = [kindCount]string{
	"send", "txdrop", "wire", "fault", "rx", "xshard",
	"demux", "vm", "deopt", "trap", "verdict", "mark",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Form selects how an event's operands read as text (see Event.Text).
type Form uint8

const (
	// FormLabel: Name is the whole text — a static label, a deopt
	// reason or a trap's error text.
	FormLabel Form = iota
	// FormLen: a frame of N[0] bytes.
	FormLen
	// FormDemux: the bridge bound the frame to handler Name.
	FormDemux
	// FormNative: native handler Name ran.
	FormNative
	// FormVM: switchlet handler Name ran for N[0] steps, allocated N[1]
	// bytes and entered the wire/quickened streams N[2]/N[3] times.
	FormVM
	// FormForward: the handler queued N[0] sends.
	FormForward
	// FormLoadReject: a switchlet load failed with error text Name.
	FormLoadReject
	// FormRollback: the Manager rolled an upgrade back for reason Name.
	FormRollback

	formCount
)

// Event is one record: an instant (Dur == 0) or a span (Dur > 0) at
// virtual time VT on node Node, belonging to trace Trace. Bit 0 of
// Trace is the sampled flag; bit 63 is always set so a zero Trace
// means "untraced". What happened is held as operands — Form, Name and
// N — so recording an event formats nothing; Text renders them.
type Event struct {
	VT    int64
	Dur   int64
	Trace uint64
	Kind  Kind
	Form  Form
	Node  string
	Name  string
	N     [4]int64
}

// Text renders the event's operands. It is the only place the wording
// of an event lives; the text transcript, flight dumps and the Chrome
// export all call it at render time.
func (ev Event) Text() string {
	switch ev.Form {
	case FormLen:
		return fmt.Sprintf("len=%d", ev.N[0])
	case FormDemux:
		return "demux handler=" + ev.Name
	case FormNative:
		return "native handler=" + ev.Name
	case FormVM:
		return fmt.Sprintf("handler=%s steps=%d alloc=%d tiers=%d/%d", ev.Name, ev.N[0], ev.N[1], ev.N[2], ev.N[3])
	case FormForward:
		return fmt.Sprintf("forward sends=%d", ev.N[0])
	case FormLoadReject:
		return "load-reject: " + ev.Name
	case FormRollback:
		return "rollback: " + ev.Name
	}
	return ev.Name
}

// Sampled reports whether a trace ID carries the sampled bit.
func Sampled(trace uint64) bool { return trace&1 == 1 }

// less is the canonical event order: virtual time, then trace, then
// pipeline rank, then node/operands/duration. Two events equal under it
// are identical records, so sorting a batch with it yields the same
// byte sequence no matter which engine recorded what.
func less(a, b *Event) bool {
	if a.VT != b.VT {
		return a.VT < b.VT
	}
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Form != b.Form {
		return a.Form < b.Form
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	for i := range a.N {
		if a.N[i] != b.N[i] {
			return a.N[i] < b.N[i]
		}
	}
	return a.Dur < b.Dur
}

// FlightDump is one flight-recorder snapshot: the ring contents,
// oldest first, at the moment a trigger fired.
type FlightDump struct {
	Reason string
	VT     int64
	Shard  int
	Events []Event
}

// Config parameterizes a Tracer. The zero value means: seed 1, sample
// everything, 256-event flight rings, one-million-event transcript cap.
type Config struct {
	// Seed derives every per-NIC trace-ID stream (frand.DeriveSeed on
	// the NIC name), exactly like a fault plan's seed.
	Seed uint64
	// SampleProb is the per-trace Bernoulli probability that a freshly
	// minted trace records into the sampled transcript. <= 0 means 1.0
	// (sample everything); the flight recorder is unaffected either way.
	SampleProb float64
	// FlightN is the per-engine flight-recorder ring size.
	FlightN int
	// MaxEvents caps the merged transcript. Overflow is counted in
	// Dropped — never silently discarded — and trimmed only at merge
	// points, so the kept prefix is still shard-count invariant.
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleProb <= 0 {
		c.SampleProb = 1
	}
	if c.FlightN <= 0 {
		c.FlightN = 256
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	return c
}

// Engine is the per-shard recording surface. It is single-goroutine by
// construction — it lives where its netsim engine's events run — so
// Emit takes no locks and allocates only when the sampled buffer grows.
type Engine struct {
	tracer *Tracer
	shard  int

	sampled []Event // transcript candidates since the last merge
	next    int     // Flush's merge position in sampled
	flight  []Event // flight-recorder ring
	fpos    int
	ffull   bool
	dumps   []FlightDump
	dumpN   uint64
}

// Shard returns the engine's shard index (0 for the serial engine).
func (e *Engine) Shard() int { return e.shard }

// Tracer returns the tracer this engine records into.
func (e *Engine) Tracer() *Tracer { return e.tracer }

// Emit records one event: always into the flight ring, and into the
// sampled transcript when the trace carries the sampled bit (shard
// crossings are flight-only — they do not exist on the serial engine).
func (e *Engine) Emit(ev Event) {
	e.flight[e.fpos] = ev
	e.fpos++
	if e.fpos == len(e.flight) {
		e.fpos, e.ffull = 0, true
	}
	if ev.Trace&1 == 1 && ev.Kind != KindXShard {
		e.sampled = append(e.sampled, ev)
	}
}

// DumpFlight snapshots the flight ring, oldest event first. Triggers:
// VM trap, netloader verifier rejection, Manager rollback, invariant
// violation — anything that wants "what just happened here".
func (e *Engine) DumpFlight(reason string, vt int64) {
	n := e.fpos
	if e.ffull {
		n = len(e.flight)
	}
	evs := make([]Event, 0, n)
	if e.ffull {
		evs = append(evs, e.flight[e.fpos:]...)
	}
	evs = append(evs, e.flight[:e.fpos]...)
	e.dumps = append(e.dumps, FlightDump{Reason: reason, VT: vt, Shard: e.shard, Events: evs})
	e.dumpN++
}

// Transcript block sizes: the first block holds firstBlock events and
// each next one twice its predecessor, up to maxBlock.
const (
	firstBlock = 64
	maxBlock   = 4096
)

// Tracer owns one traced net: its engines, the merged transcript, and
// the trace-ID mint. Merge-side methods (Flush, Transcript, renderers,
// counters) must only run at quiescent points, where every engine is
// parked — the same single-writer contract the metrics plane uses.
type Tracer struct {
	cfg     Config
	engines []*Engine
	// blocks hold the merged transcript in order; every block but the
	// last is full, and none is reallocated once made.
	blocks  [][]Event
	n       int       // events in blocks
	sorter  batchSort // Flush's sort.Interface; a field, so passing it allocates nothing
	spans   uint64
	dropped uint64
	vmHist  Hist
}

// batchSort sorts one engine's sampled buffer into canonical order,
// comparing events in place.
type batchSort struct{ evs []Event }

func (b *batchSort) Len() int           { return len(b.evs) }
func (b *batchSort) Less(i, j int) bool { return less(&b.evs[i], &b.evs[j]) }
func (b *batchSort) Swap(i, j int)      { b.evs[i], b.evs[j] = b.evs[j], b.evs[i] }

// Hist receives span durations at merge time; it is satisfied by
// *metrics.Histogram without this package importing metrics.
type Hist interface{ Observe(float64) }

// New creates a tracer with the given config (zero value is fine).
func New(cfg Config) *Tracer { return &Tracer{cfg: cfg.withDefaults()} }

// Config returns the effective (default-filled) configuration.
func (t *Tracer) Config() Config { return t.cfg }

// Engine returns the recording engine for a shard, creating it on
// first use. Call during build/bind, not from concurrent shard runs.
func (t *Tracer) Engine(shard int) *Engine {
	for _, e := range t.engines {
		if e.shard == shard {
			return e
		}
	}
	e := &Engine{tracer: t, shard: shard, flight: make([]Event, t.cfg.FlightN)}
	t.engines = append(t.engines, e)
	return e
}

// SeedFor derives the trace-ID stream seed for one NIC, independent of
// declaration order and shard assignment.
func (t *Tracer) SeedFor(name string) uint64 { return frand.DeriveSeed(t.cfg.Seed, name) }

// TraceID mints the ID for the n-th frame injected by a NIC whose
// stream seed is seed. Bit 63 is set (a zero ID means untraced), bit 0
// is the head-based sampling decision; both are pure functions of
// (seed, n), so the sharded engine mints the same IDs serial does.
func (t *Tracer) TraceID(seed, n uint64) uint64 {
	raw := frand.Mix(seed ^ n*0x9E3779B97F4A7C15)
	id := raw&^1 | 1<<63
	if float64(frand.Mix(raw)>>11)/(1<<53) < t.cfg.SampleProb {
		id |= 1
	}
	return id
}

// Flush merges every engine's sampled buffer into the transcript in
// canonical order. Call only at quiescent points. Merge batches
// partition the virtual-time axis (events never run backwards), so
// per-batch sorting yields a globally sorted transcript and the result
// does not depend on how many barriers the sharded engine took.
//
// Each engine's buffer is sorted in place and the sorted buffers are
// merged straight into the transcript's blocks, so the merge allocates
// only when a buffer outgrows every earlier batch or the transcript
// needs a new block, and holds no copy of a batch between merges.
func (t *Tracer) Flush() {
	total := 0
	for _, e := range t.engines {
		t.sorter.evs = e.sampled
		sort.Sort(&t.sorter)
		total += len(e.sampled)
	}
	t.sorter.evs = nil
	if total == 0 {
		return
	}
	keep := min(total, t.cfg.MaxEvents-t.n)
	t.dropped += uint64(total - keep)
	for i := 0; i < total; i++ {
		ev := t.pop()
		if t.vmHist != nil && ev.Kind == KindVM {
			t.vmHist.Observe(float64(ev.Dur))
		}
		if i < keep {
			if ev.Dur > 0 {
				t.spans++
			}
			t.push(ev)
		}
	}
	for _, e := range t.engines {
		e.sampled, e.next = e.sampled[:0], 0
	}
}

// pop consumes and returns the least event not yet merged from the
// engines' sorted buffers.
func (t *Tracer) pop() *Event {
	var from *Engine
	for _, e := range t.engines {
		if e.next < len(e.sampled) && (from == nil || less(&e.sampled[e.next], &from.sampled[from.next])) {
			from = e
		}
	}
	from.next++
	return &from.sampled[from.next-1]
}

// push appends one event to the transcript. A new block is twice the
// size of the last, at most maxBlock events and never more than the
// cap leaves room for.
func (t *Tracer) push(ev *Event) {
	k := len(t.blocks)
	if k == 0 || len(t.blocks[k-1]) == cap(t.blocks[k-1]) {
		size := firstBlock
		if k > 0 {
			size = min(2*cap(t.blocks[k-1]), maxBlock)
		}
		t.blocks = append(t.blocks, make([]Event, 0, min(size, t.cfg.MaxEvents-t.n)))
		k++
	}
	t.blocks[k-1] = append(t.blocks[k-1], *ev)
	t.n++
}

// SetVMHist installs the histogram fed with KindVM span durations
// (virtual nanoseconds) as batches merge.
func (t *Tracer) SetVMHist(h Hist) { t.vmHist = h }

// Transcript returns a copy of the merged sampled transcript, made
// afresh on every call. Flush first; use Len for its length alone.
func (t *Tracer) Transcript() []Event {
	out := make([]Event, 0, t.n)
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	return out
}

// Len returns the number of events in the merged transcript.
func (t *Tracer) Len() int { return t.n }

// Spans returns the number of span events (Dur > 0) in the merged
// transcript.
func (t *Tracer) Spans() uint64 { return t.spans }

// Dropped returns how many sampled events the transcript cap trimmed.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// DumpCount returns how many flight-recorder dumps have fired.
func (t *Tracer) DumpCount() uint64 {
	var n uint64
	for _, e := range t.engines {
		n += e.dumpN
	}
	return n
}

// FlightDumps returns every engine's dumps in (VT, shard, reason)
// order.
func (t *Tracer) FlightDumps() []FlightDump {
	var all []FlightDump
	for _, e := range t.engines {
		all = append(all, e.dumps...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Reason < b.Reason
	})
	return all
}

// RenderTranscript writes the merged transcript as aligned text, one
// event per line — the form the determinism tests pin byte-for-byte.
func (t *Tracer) RenderTranscript(w io.Writer) {
	t.each(func(ev *Event) { writeEvent(w, ev) })
}

// each calls fn on every transcript event in order, in place.
func (t *Tracer) each(fn func(*Event)) {
	for _, b := range t.blocks {
		for i := range b {
			fn(&b[i])
		}
	}
}

// RenderDumps writes every flight dump as text: a header line per
// dump, then its events oldest first.
func (t *Tracer) RenderDumps(w io.Writer) {
	for _, d := range t.FlightDumps() {
		fmt.Fprintf(w, "== flight dump @t=%d shard=%d: %s (%d events) ==\n", d.VT, d.Shard, d.Reason, len(d.Events))
		for i := range d.Events {
			writeEvent(w, &d.Events[i])
		}
	}
}

func writeEvent(w io.Writer, ev *Event) {
	fmt.Fprintf(w, "t=%-12d %016x %-7s %s", ev.VT, ev.Trace, ev.Kind, ev.Node)
	if ev.Dur > 0 {
		fmt.Fprintf(w, " dur=%d", ev.Dur)
	}
	if text := ev.Text(); text != "" {
		fmt.Fprintf(w, " %s", text)
	}
	fmt.Fprintln(w)
}

// enabled is the process-wide opt-in, mirroring metrics.Enabled: every
// net built while it is on gets a tracer wired by topo.Build.
var enabled atomic.Bool

// Enable turns process-wide tracing on for nets built afterwards.
func Enable() { enabled.Store(true) }

// SetEnabled sets the process-wide flag explicitly.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether process-wide tracing is on.
func Enabled() bool { return enabled.Load() }

var (
	defMu  sync.Mutex
	defCfg Config
)

// SetDefaultConfig sets the config used when topo.Build auto-enables
// tracing (activebridge.SetTraceConfig, AB_TRACE in tests).
func SetDefaultConfig(c Config) {
	defMu.Lock()
	defCfg = c
	defMu.Unlock()
}

// GetDefaultConfig returns the config SetDefaultConfig stored.
func GetDefaultConfig() Config {
	defMu.Lock()
	defer defMu.Unlock()
	return defCfg
}

// Hub collects the tracers of every traced net in the process so an
// exporter (activebridge.WriteTrace) can write them all at once. It
// holds one tracer per net name, the ownership rule metrics.Hub follows
// too: a tracer keeps its whole transcript and flight rings, so
// rebuilding a net under the same name releases the previous one's.
type Hub struct {
	mu      sync.Mutex
	tracers []*Tracer
	nets    []string // nets[i] names the net tracers[i] observes
}

// DefaultHub is the process-wide hub topo.EnableTracing attaches to.
var DefaultHub = &Hub{}

// Attach adds net's tracer to the hub, replacing the tracer of an
// earlier net of the same name in place.
func (h *Hub) Attach(net string, t *Tracer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, n := range h.nets {
		if n == net {
			h.tracers[i] = t
			return
		}
	}
	h.nets = append(h.nets, net)
	h.tracers = append(h.tracers, t)
}

// Detach removes a tracer from the hub and reports whether it was
// attached.
func (h *Hub) Detach(t *Tracer) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, x := range h.tracers {
		if x == t {
			h.tracers = append(h.tracers[:i], h.tracers[i+1:]...)
			h.nets = append(h.nets[:i], h.nets[i+1:]...)
			return true
		}
	}
	return false
}

// Tracers returns a snapshot of the attached tracers.
func (h *Hub) Tracers() []*Tracer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Tracer(nil), h.tracers...)
}
