// Package fault is the deterministic fault-injection plane for the
// simulated extended LAN: seeded impairments of frames on the wire (drop,
// corrupt, duplicate — Bernoulli or bursty Gilbert-Elliott), link flaps,
// partitions, and bridge crash/restart, all scheduled in virtual time
// from a declarative Plan.
//
// Determinism is the design constraint everything here serves. Every
// random decision comes from a per-segment splitmix64 stream derived
// from the plan seed and the segment's name, and each stream is consumed
// only by that segment's filter, which runs on the segment owner's
// engine in transmit order. That order is identical under the serial
// and the sharded engine, so a chaos run replays byte-for-byte at any
// shard count: same seed, same faults, same fingerprint. Scheduled
// events (flaps, partitions, crashes) run on the net's control engine,
// which executes alone at a global barrier and may touch any shard.
//
// The plane is strictly opt-in: a net built without a Plan (and without
// fault annotations) takes none of these code paths and reproduces the
// pre-fault goldens exactly. It keeps no process-wide state: a plan is
// declared per net, and what it injected is counted by the elements it
// hit (a segment's FaultDrops/FaultCorrupts/FaultDups, a NIC's
// FaultDrops while its link is down, a bridge's Stats.Crashes/Restarts).
package fault

import (
	"fmt"
	"sort"

	"github.com/switchware/activebridge/internal/fault/frand"
	"github.com/switchware/activebridge/internal/netsim"
)

// Rand is the splitmix64 generator shared with the tracing sampler; the
// implementation lives in the dependency-free frand subpackage so layers
// below netsim can use the identical streams.
type Rand = frand.Rand

// NewRand returns a generator seeded with the given state.
func NewRand(seed uint64) *Rand { return frand.New(seed) }

// DeriveSeed folds an entity name into a plan seed so every entity gets
// an independent stream that does not depend on declaration order, shard
// assignment, or which other entities exist.
func DeriveSeed(seed uint64, name string) uint64 { return frand.DeriveSeed(seed, name) }

// Model is a frame-impairment profile. The Bernoulli fields are
// independent per-frame probabilities; at most one fate applies to a
// frame (drop, then corrupt, then duplicate take the shared draw).
//
// Setting GoodToBad > 0 enables a two-state Gilbert-Elliott chain that
// gates the drop probability for burst losses: each frame first advances
// the chain (Good→Bad with probability GoodToBad, Bad→Good with
// BadToGood), and while in the Bad state the drop probability is BadDrop
// instead of Drop. Corrupt and Duplicate are unaffected by the chain.
type Model struct {
	// Drop is the per-frame loss probability (Good state).
	Drop float64
	// Corrupt is the per-frame probability the frame arrives damaged and
	// is discarded by every receiver's FCS check.
	Corrupt float64
	// Duplicate is the per-frame probability of a doubled delivery.
	Duplicate float64

	// GoodToBad enables the burst chain when > 0: the per-frame
	// probability of entering the Bad (bursty-loss) state.
	GoodToBad float64
	// BadToGood is the per-frame probability of leaving the Bad state.
	BadToGood float64
	// BadDrop is the loss probability while in the Bad state.
	BadDrop float64
}

// Zero reports whether the model impairs nothing.
func (m Model) Zero() bool {
	return m.Drop == 0 && m.Corrupt == 0 && m.Duplicate == 0 && m.GoodToBad == 0
}

// Stream turns a Model into a deterministic sequence of per-frame
// verdicts. Its Verdict method satisfies netsim.FaultFunc; install it
// with Segment.SetFault. A Stream is single-goroutine by construction
// (it lives where its segment's transmissions run).
type Stream struct {
	rng Rand
	m   Model
	bad bool
}

// NewStream creates a verdict stream for the model, seeded for one
// segment (combine Plan.Seed and the segment name with DeriveSeed).
func NewStream(seed uint64, m Model) *Stream {
	return &Stream{rng: frand.Seeded(seed), m: m}
}

// Verdict decides the fate of one frame. It consumes a fixed number of
// draws per frame (one, plus one while the burst chain is enabled), so
// the stream's alignment is a pure function of how many frames its
// entity has seen.
func (s *Stream) Verdict([]byte) netsim.FaultAction {
	drop := s.m.Drop
	if s.m.GoodToBad > 0 {
		p := s.m.GoodToBad
		if s.bad {
			p = s.m.BadToGood
		}
		if s.rng.Float64() < p {
			s.bad = !s.bad
		}
		if s.bad {
			drop = s.m.BadDrop
		}
	}
	r := s.rng.Float64()
	switch {
	case r < drop:
		return netsim.FaultDrop
	case r < drop+s.m.Corrupt:
		return netsim.FaultCorrupt
	case r < drop+s.m.Corrupt+s.m.Duplicate:
		return netsim.FaultDuplicate
	}
	return netsim.FaultNone
}

// Op is a scheduled fault event's action.
type Op uint8

// The scheduled event kinds.
const (
	// OpLinkDown takes a whole segment down (a cut cable / partition).
	OpLinkDown Op = iota
	// OpLinkUp restores a downed segment.
	OpLinkUp
	// OpPortDown drops one bridge port's carrier.
	OpPortDown
	// OpPortUp restores one bridge port's carrier.
	OpPortUp
	// OpCrash freezes a bridge: ports dead, queued work dropped.
	OpCrash
	// OpRestart cold-restarts a crashed bridge: switchlet manifests
	// reinstalled through the Manager, learning state gone.
	OpRestart
)

var opNames = [...]string{"link-down", "link-up", "port-down", "port-up", "crash", "restart"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one scheduled fault: an Op applied to a named target at a
// virtual instant (measured from the start of the run).
type Event struct {
	// At is the virtual time offset the event fires at.
	At netsim.Duration
	// Op is the action.
	Op Op
	// Target names the segment (link ops) or bridge (port and crash ops)
	// the event applies to, as declared in the topology.
	Target string
	// Port selects the bridge port for OpPortDown/OpPortUp.
	Port int
}

func (e Event) String() string {
	if e.Op == OpPortDown || e.Op == OpPortUp {
		return fmt.Sprintf("%v %s %s port %d", e.At, e.Op, e.Target, e.Port)
	}
	return fmt.Sprintf("%v %s %s", e.At, e.Op, e.Target)
}

// Plan is a complete seeded fault schedule for one net: frame-impairment
// models per segment, plus scheduled events. Attach it with
// topo.Graph.FaultPlan before Build, which fails on any name the plan
// uses that the topology does not declare. The zero of everything — no
// models, no events — is a valid plan that injects nothing.
type Plan struct {
	// Seed is the root of every derived stream: two runs of the same net
	// with the same plan are byte-identical; changing the seed reshuffles
	// every impairment decision.
	Seed uint64

	segments    map[string]Model
	allSegments *Model
	events      []Event
}

// NewPlan creates an empty plan with the given seed.
func NewPlan(seed uint64) *Plan { return &Plan{Seed: seed} }

// Segment attaches an impairment model to the named segment's medium.
// It returns the plan for chaining.
func (p *Plan) Segment(name string, m Model) *Plan {
	if p.segments == nil {
		p.segments = map[string]Model{}
	}
	p.segments[name] = m
	return p
}

// AllSegments attaches an impairment model to every segment that has no
// specific model of its own.
func (p *Plan) AllSegments(m Model) *Plan {
	p.allSegments = &m
	return p
}

// At schedules a fault event. It returns the plan for chaining.
func (p *Plan) At(at netsim.Duration, op Op, target string) *Plan {
	p.events = append(p.events, Event{At: at, Op: op, Target: target})
	return p
}

// AtPort schedules a per-port fault event (OpPortDown / OpPortUp).
func (p *Plan) AtPort(at netsim.Duration, op Op, bridge string, port int) *Plan {
	p.events = append(p.events, Event{At: at, Op: op, Target: bridge, Port: port})
	return p
}

// SegmentModel resolves the model for a named segment (specific first,
// then the AllSegments default).
func (p *Plan) SegmentModel(name string) (Model, bool) {
	if m, ok := p.segments[name]; ok {
		return m, ok
	}
	if p.allSegments != nil {
		return *p.allSegments, true
	}
	return Model{}, false
}

// SegmentNames returns the names given to Segment, sorted, so
// topo.Build can check each against the topology.
func (p *Plan) SegmentNames() []string {
	names := make([]string, 0, len(p.segments))
	for name := range p.segments { //ab:mapiter-ok sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Events returns the scheduled events in declaration order (the builder
// schedules each at its own instant; the engine orders same-instant
// events by schedule sequence, so declaration order is the tiebreak).
func (p *Plan) Events() []Event { return p.events }

// SegmentStream derives the named segment's verdict stream.
func (p *Plan) SegmentStream(name string, m Model) *Stream {
	return NewStream(DeriveSeed(p.Seed, "segment/"+name), m)
}
