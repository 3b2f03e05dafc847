package netsim

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/tracing"
)

// txqEntry is one queued frame plus the trace context it was sent
// under, so a trace follows its frame through the transmit backlog
// instead of being misattributed to whatever event happens to drain it.
type txqEntry struct {
	raw   []byte
	trace uint64
}

// txq is the bounded transmit backlog and drain latch shared by a NIC
// and its owner-side proxy on a cut segment (xport): one state machine,
// so serial and sharded transmit pacing can never diverge. The consumed
// prefix is reclaimed when the queue drains, so steady-state sends do
// not allocate.
type txq struct {
	q    []txqEntry
	head int
	busy bool
}

// txQueueLimit bounds every transmit backlog, in frames.
const txQueueLimit = 128

// offer appends raw unless the queue already holds txQueueLimit frames.
// It reports whether the frame was accepted and whether the caller must
// start the drain (the queue was idle).
func (t *txq) offer(raw []byte, trace uint64) (accepted, start bool) {
	if len(t.q)-t.head >= txQueueLimit {
		return false, false
	}
	t.q = append(t.q, txqEntry{raw: raw, trace: trace})
	if !t.busy {
		t.busy = true
		return true, true
	}
	return true, false
}

// next yields the next frame to transmit, or clears the busy latch and
// reports false when the backlog is drained.
func (t *txq) next() (txqEntry, bool) {
	if t.head == len(t.q) {
		t.q = t.q[:0]
		t.head = 0
		t.busy = false
		return txqEntry{}, false
	}
	if t.head >= 64 {
		// Compact under sustained backlog so the backing array stays
		// bounded by the queue limit, not the run length.
		t.q = t.q[:copy(t.q, t.q[t.head:])]
		t.head = 0
	}
	ent := t.q[t.head]
	t.q[t.head] = txqEntry{}
	t.head++
	return ent, true
}

// backlog reports the queued frame count.
func (t *txq) backlog() int { return len(t.q) - t.head }

// RecvFunc is invoked (at interrupt level, in the paper's terms) when a NIC
// accepts a frame. raw is the encoded frame including FCS; handlers that
// need decoded fields should use ethernet.Frame.Unmarshal or the Peek
// helpers. The slice must not be mutated: it is shared among all receivers
// on the segment, exactly as a broadcast medium shares bits.
type RecvFunc func(nic *NIC, raw []byte)

// TxDropFunc is the transmit-queue overflow notification. It is invoked
// at the exact instant Send (or, on a cut segment, the owner-side
// transmit proxy) rejects a frame. On a cut segment it runs on the
// goroutine of the segment owner's engine, not the NIC's, so it must
// touch only state dedicated to this callback — a counter cell the
// callback alone writes — never the NIC's owning node.
type TxDropFunc func(nic *NIC, raw []byte)

// NIC is a simulated Ethernet adapter: one port of a host or bridge.
//
// Output is queued: Send appends to a bounded transmit queue which drains
// through the attached segment at wire speed. A full queue drops the frame
// and counts it, which is how broadcast storms in the loop experiments are
// kept observable rather than unbounded.
type NIC struct {
	Name string
	MAC  ethernet.MAC

	sim     *Sim
	segment *Segment

	// Promiscuous controls filtering: bridges set it (the paper: "whenever
	// an input port is bound, it is put into promiscuous mode"); hosts
	// leave it off and receive only unicast-to-self and broadcast frames.
	Promiscuous bool

	recv RecvFunc

	// xport is the owner-shard transmit proxy when this NIC is attached to
	// a cut segment owned by another shard (sharded simulations only).
	xport *xport
	// tx is the transmit backlog and drain latch.
	tx txq
	// drainFn is the drain callback allocated once, not per transmission.
	drainFn func()

	// linkDown is the fault plane's carrier state: a downed NIC drops
	// every frame at both the send and the deliver boundary. It changes
	// only from the NIC's own engine or at a coordinator barrier (fault
	// events are control events), never mid-window.
	linkDown bool
	// dropFn, when set, is notified of every transmit-queue overflow
	// (see TxDropFunc for the threading contract).
	dropFn TxDropFunc

	// Trace-ID mint state: the per-NIC splitmix64 stream seed (derived
	// lazily from the tracer seed and the NIC name) and the injected-
	// frame counter it is advanced by. Both are engine-local, so the
	// minted IDs are identical at any shard count.
	traceSeed   uint64
	traceSeeded bool
	traceSends  uint64

	// Stats.
	RxFrames, TxFrames uint64
	RxBytes, TxBytes   uint64
	TxDrops            uint64
	RxFiltered         uint64
	// FaultDrops counts the frames destroyed at this NIC while its link
	// was down, sent or arriving.
	FaultDrops uint64
}

// NewNIC creates an interface with the given MAC bound to the simulation.
func NewNIC(sim *Sim, name string, mac ethernet.MAC) *NIC {
	n := &NIC{Name: name, MAC: mac, sim: sim}
	n.drainFn = n.drain
	return n
}

// SetRecv installs the receive handler.
func (n *NIC) SetRecv(fn RecvFunc) { n.recv = fn }

// Segment returns the attached segment, or nil.
func (n *NIC) Segment() *Segment { return n.segment }

// SetLinkDown sets the fault plane's carrier state. While down, the NIC
// drops every frame on both the transmit and the receive boundary
// (counted in FaultDrops) — the wire-level view of a pulled cable or a
// crashed node. Frames already on the medium when the link drops are
// lost at delivery, exactly as a cut mid-flight would lose them. Call it
// only from the NIC's own engine or from a coordinator control event
// (the fault plane schedules flaps on the control engine, which runs at
// a global barrier).
func (n *NIC) SetLinkDown(down bool) { n.linkDown = down }

// LinkDown reports the fault plane's carrier state.
func (n *NIC) LinkDown() bool { return n.linkDown }

// SetTxDropFn installs the transmit-queue overflow notification (nil
// removes it). See TxDropFunc for the threading contract.
func (n *NIC) SetTxDropFn(fn TxDropFunc) { n.dropFn = fn }

// traceEvent records one labelled event against this NIC when the net
// is traced. It and traceLen take scalars and inline, so an untraced
// call site is one nil check and never builds an Event.
func (n *NIC) traceEvent(kind tracing.Kind, trace uint64, label string) {
	if n.sim.trc != nil {
		n.sim.trc.Emit(tracing.Event{
			VT: int64(n.sim.now), Trace: trace, Kind: kind, Node: n.Name, Name: label,
		})
	}
}

// traceLen records a frame of the given length passing this NIC.
func (n *NIC) traceLen(kind tracing.Kind, trace uint64, length int) {
	if n.sim.trc != nil {
		n.sim.trc.Emit(tracing.Event{
			VT: int64(n.sim.now), Trace: trace, Kind: kind, Node: n.Name,
			Form: tracing.FormLen, N: [4]int64{int64(length)},
		})
	}
}

// deliver is called by the segment when a frame arrives at this NIC.
func (n *NIC) deliver(raw []byte) {
	if n.linkDown {
		n.FaultDrops++
		n.traceEvent(tracing.KindFault, n.sim.curTrace, "rx linkdown")
		return
	}
	if !n.accepts(raw) {
		n.RxFiltered++
		return
	}
	n.RxFrames++
	n.RxBytes += uint64(len(raw))
	n.traceLen(tracing.KindRx, n.sim.curTrace, len(raw))
	if n.recv != nil {
		n.recv(n, raw)
	}
}

func (n *NIC) accepts(raw []byte) bool {
	if n.Promiscuous {
		return true
	}
	dst, err := ethernet.PeekDst(raw)
	if err != nil {
		return false
	}
	return dst == n.MAC || dst.IsBroadcast()
}

// Send queues an encoded frame for transmission. It reports whether the
// frame was accepted (false means the transmit queue overflowed). When
// the attached segment lives in another shard, the frame crosses through
// the coordinator to be serialized onto the medium at this exact instant;
// overflow is then accounted on the owner side and Send reports true.
func (n *NIC) Send(raw []byte) bool {
	if n.segment == nil {
		panic(fmt.Sprintf("netsim: NIC %s (%v) not attached to a segment", n.Name, n.MAC))
	}
	// A frame entering the net under no trace context starts a trace:
	// the ID comes from the NIC's own seeded stream, so it is the same
	// at any shard count, and its bit 0 carries the head-based sampling
	// decision. Forwarded frames (sent while a traced frame dispatches)
	// inherit the ambient context instead.
	trace := n.sim.curTrace
	if n.sim.trc != nil && trace == 0 {
		trace = n.mintTrace()
	}
	if n.linkDown {
		// No carrier: the driver's view of a dead link is a frame that
		// vanishes, not an error (compare Bridge.Send on a nil segment).
		n.FaultDrops++
		n.traceEvent(tracing.KindTxDrop, trace, "linkdown")
		return false
	}
	if n.xport != nil {
		n.traceLen(tracing.KindSend, trace, len(raw))
		n.traceEvent(tracing.KindXShard, trace, "request->owner")
		n.sim.coord.postRequest(n, raw, trace)
		return true
	}
	accepted, start := n.tx.offer(raw, trace)
	if !accepted {
		n.TxDrops++
		n.traceEvent(tracing.KindTxDrop, trace, "overflow")
		if n.dropFn != nil {
			n.dropFn(n, raw)
		}
		return false
	}
	n.traceLen(tracing.KindSend, trace, len(raw))
	if start {
		n.drain()
	}
	return true
}

// mintTrace draws the next trace ID from this NIC's seeded stream.
func (n *NIC) mintTrace() uint64 {
	t := n.sim.trc.Tracer()
	if !n.traceSeeded {
		n.traceSeed = t.SeedFor(n.Name)
		n.traceSeeded = true
	}
	n.traceSends++
	return t.TraceID(n.traceSeed, n.traceSends)
}

func (n *NIC) drain() {
	ent, ok := n.tx.next()
	if !ok {
		return
	}
	n.TxFrames++
	n.TxBytes += uint64(len(ent.raw))
	// Transmit under the queued frame's own trace context (drain may be
	// running from a later frame's event), restoring the ambient context
	// for the caller.
	prev := n.sim.curTrace
	n.sim.curTrace = ent.trace
	done := n.segment.transmit(n, ent.raw)
	n.sim.Schedule(done, n.drainFn)
	n.sim.curTrace = prev
}

// TxQueueLen reports the current transmit backlog in frames (for a NIC on
// a cut segment, read it only at quiescent points).
func (n *NIC) TxQueueLen() int {
	if n.xport != nil {
		return n.xport.queueLen()
	}
	return n.tx.backlog()
}

func (n *NIC) String() string { return fmt.Sprintf("%s(%v)", n.Name, n.MAC) }
