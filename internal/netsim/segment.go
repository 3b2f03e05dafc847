package netsim

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/tracing"
)

// FaultAction is a fault verdict for one frame in flight, returned by a
// FaultFunc installed on a segment (see internal/fault for the seeded
// plans that supply these).
type FaultAction uint8

// The frame fates a fault filter can impose.
const (
	// FaultNone lets the frame through untouched.
	FaultNone FaultAction = iota
	// FaultDrop destroys the frame in flight.
	FaultDrop
	// FaultCorrupt damages the frame in flight: it still occupies the
	// wire, but every receiver's FCS check discards it, so it is
	// delivered to no one and counted separately from a drop.
	FaultCorrupt
	// FaultDuplicate delivers the frame twice to every receiver.
	FaultDuplicate
)

// FaultFunc decides the fate of one frame. It must be deterministic given
// its own call sequence (the fault plane derives each filter from a
// per-segment seeded stream), and must not retain or mutate raw.
type FaultFunc func(raw []byte) FaultAction

// Segment models a shared 100 Mbps Ethernet broadcast domain (one of the
// paper's "100 Mbps Ethernet LANs"). Transmissions are serialized: the
// medium carries one frame at a time, and every attached NIC other than the
// sender receives each frame. Propagation delay is constant per segment.
type Segment struct {
	Name string

	sim  *Sim
	nics []*NIC

	// Bps is the raw signalling rate (default 100e6).
	Bps float64
	// Propagation is the fixed one-way propagation delay.
	Propagation Duration

	busyUntil Time

	// down is the fault plane's cable state: a downed segment consumes
	// transmissions (the sender's drain still paces on the wire time) but
	// delivers to no one — a cut cable, not a jammed medium. It changes
	// only from the owner engine or at a coordinator barrier.
	down bool
	// fault, when set, passes every transmitted frame through a fault
	// filter on the owner engine, in transmit order.
	fault FaultFunc

	// Stats.
	Frames    uint64
	Bytes     uint64
	BusyTime  Duration
	lastStart Time
	// Fault-plane stats: frames destroyed on this segment (drops plus
	// everything eaten while down), frames delivered corrupt and so
	// discarded by every receiver, and duplicate deliveries injected.
	FaultDrops    uint64
	FaultCorrupts uint64
	FaultDups     uint64
}

// Default medium parameters (NewSegment's initial values).
const (
	// DefaultRateBps is the default signalling rate: 100 Mb/s Ethernet.
	DefaultRateBps = 100e6
	// DefaultPropagation is the default one-way propagation delay (a
	// short in-room LAN).
	DefaultPropagation = 500 * Nanosecond
)

// NewSegment creates a 100 Mbps segment attached to the simulation.
func NewSegment(sim *Sim, name string) *Segment {
	return &Segment{Name: name, sim: sim, Bps: DefaultRateBps, Propagation: DefaultPropagation}
}

// MinWireLatency returns the smallest source-to-sink latency a segment
// with the given rate and propagation can exhibit: the empty-frame wire
// overhead plus propagation. It is the lookahead a cut through such a
// segment gives the sharded engine, and what the partitioner's
// cut-scoring heuristic weighs — one definition for both.
func MinWireLatency(bps float64, propagation Duration) Duration {
	return Duration(float64(ethernet.OverheadBits)/bps*1e9) + propagation
}

// Attach connects a NIC to the segment. A NIC may be attached to exactly one
// segment; Attach panics on a second attachment (a wiring bug, not a runtime
// condition).
//
// In a sharded simulation a NIC bound to a different shard engine may be
// attached, making this a cut segment: the NIC's transmit queue moves to
// an owner-side proxy and its deliveries cross through the coordinator.
// The segment must live in the lowest shard among its attachments (the
// topology builder guarantees this), so the zero-lookahead transmit
// direction always points from a higher shard to a lower one.
func (g *Segment) Attach(n *NIC) {
	if n.segment != nil {
		panic(fmt.Sprintf("netsim: NIC %v already attached to %s", n.MAC, n.segment.Name))
	}
	if n.sim != g.sim {
		c := g.sim.coord
		if c == nil || n.sim.coord != c {
			panic(fmt.Sprintf("netsim: NIC %v and segment %s belong to different simulations", n.MAC, g.Name))
		}
		n.xport = newXport(n, g)
		c.ports = append(c.ports, n.xport)
		c.linkCut(g, n.sim.shard)
	}
	n.segment = g
	g.nics = append(g.nics, n)
}

// wireTime returns how long raw occupies the medium, including preamble and
// interframe gap.
func (g *Segment) wireTime(rawLen int) Duration {
	bits := rawLen*8 + ethernet.OverheadBits
	return Duration(float64(bits) / g.Bps * 1e9)
}

// transmit serializes the frame onto the medium on behalf of from, and
// delivers it to every other attached NIC after the wire time plus
// propagation delay. It returns the time the transmission completes.
//
// The local receivers share one delivery event, whatever their number
// and whether or not an event cap is set: it counts once per delivery
// (see Sim.MaxEvents). A transmission no local NIC receives schedules
// nothing. Receivers bound to another shard engine each get their copy
// through the coordinator, in attach order.
//
// Collisions are modelled as queueing (CSMA/CD with ideal arbitration):
// back-to-back senders each get the medium in FIFO order. This matches the
// paper's lightly loaded measurement LANs, where capture effects are not the
// phenomenon under study.
func (g *Segment) transmit(from *NIC, raw []byte) Time {
	start := g.sim.Now()
	if g.busyUntil > start {
		start = g.busyUntil
	}
	dur := g.wireTime(len(raw))
	end := start.Add(dur)
	g.busyUntil = end
	g.Frames++
	g.Bytes += uint64(len(raw))
	g.BusyTime += dur

	// Trace events are always stamped at the current instant (the span's
	// reach into the future lives in Dur), so merge batches stay aligned
	// with the virtual-time axis at any shard count.
	if g.down {
		g.FaultDrops++
		g.traceFault("segment down")
		return end
	}
	dup := false
	if g.fault != nil {
		switch g.fault(raw) {
		case FaultDrop:
			g.FaultDrops++
			g.traceFault("wire drop")
			return end
		case FaultCorrupt:
			// The damaged frame occupies the wire but every receiver's
			// FCS check discards it, so nothing is delivered.
			g.FaultCorrupts++
			g.traceFault("wire corrupt")
			return end
		case FaultDuplicate:
			g.FaultDups++
			g.traceFault("wire dup")
			dup = true
		}
	}

	arrive := end.Add(g.Propagation)
	if g.sim.trc != nil {
		g.sim.trc.Emit(tracing.Event{
			VT: int64(g.sim.now), Dur: int64(arrive - g.sim.now), Trace: g.sim.curTrace,
			Kind: tracing.KindWire, Node: g.Name, Form: tracing.FormLen, N: [4]int64{int64(len(raw))},
		})
	}
	for _, nic := range g.nics {
		if nic != from && nic.sim == g.sim {
			g.sim.scheduleDeliverSeg(arrive, g, from, raw, dup)
			break
		}
	}
	for _, nic := range g.nics {
		if nic == from || nic.sim == g.sim {
			continue
		}
		g.sim.coord.postDelivery(g, nic, arrive, raw)
		if dup {
			g.sim.coord.postDelivery(g, nic, arrive, raw)
		}
	}
	return end
}

// traceFault records a fault verdict on this segment under the ambient
// trace context when the net is traced. It inlines, so an untraced call
// site is one nil check.
func (g *Segment) traceFault(label string) {
	if g.sim.trc != nil {
		g.sim.trc.Emit(tracing.Event{
			VT: int64(g.sim.now), Trace: g.sim.curTrace, Kind: tracing.KindFault, Node: g.Name, Name: label,
		})
	}
}

// deliverLocal performs the one delivery event transmit scheduled: raw
// goes to the first nn attached NICs of this engine except from, in
// attach order, twice per NIC when dup. It returns the number of
// deliveries performed, which is what the event counts towards
// Executed and MaxEvents.
func (g *Segment) deliverLocal(from *NIC, raw []byte, nn int32, dup bool) int {
	nics := g.nics
	if int(nn) < len(nics) {
		nics = nics[:nn]
	}
	n := 0
	for _, nic := range nics {
		if nic == from || nic.sim != g.sim {
			continue
		}
		nic.deliver(raw)
		n++
		if dup {
			nic.deliver(raw)
			n++
		}
	}
	return n
}

// SetDown sets the fault plane's cable state; see the down field for the
// semantics and the threading contract.
func (g *Segment) SetDown(down bool) { g.down = down }

// Down reports the fault plane's cable state.
func (g *Segment) Down() bool { return g.down }

// SetFault installs a per-segment fault filter (nil removes it). The
// filter runs on the segment owner's engine in transmit order, which is
// identical serial and sharded — the filter's verdict sequence, and so
// the chaos run, stays byte-for-byte reproducible at any shard count.
func (g *Segment) SetFault(fn FaultFunc) { g.fault = fn }

// Utilization returns the fraction of the elapsed window the medium was busy.
func (g *Segment) Utilization(elapsed Duration) float64 {
	return Utilization(g.BusyTime, elapsed)
}

// NICs returns the attached interfaces (for topology inspection).
func (g *Segment) NICs() []*NIC { return g.nics }
