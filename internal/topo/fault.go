package topo

import (
	"fmt"

	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/netsim"
)

// DefaultFaultProfile, when non-nil, applies a chaos profile to every net
// built in the process: each Build derives a per-net plan from the
// profile (seeded from the profile seed and the net's name) unless the
// graph carries an explicit FaultPlan of its own. abbench's -faults flag
// sets it; it is read once per Build, on the caller's goroutine.
var DefaultFaultProfile *fault.Profile

// FaultPlan attaches a seeded fault schedule to the topology: impairment
// models resolve against declared segment/bridge names at Build, and
// scheduled events fire on the net's control engine at their virtual
// instants. A nil plan (the default) takes none of the fault code paths.
func (g *Graph) FaultPlan(p *fault.Plan) { g.faultPlan = p }

// effectiveFaultPlan resolves the plan a build applies: the graph's own,
// else one derived from the process-wide profile, else nil.
func (g *Graph) effectiveFaultPlan() *fault.Plan {
	if g.faultPlan != nil {
		return g.faultPlan
	}
	if DefaultFaultProfile != nil {
		return DefaultFaultProfile.PlanFor(g.Name)
	}
	return nil
}

// applyFaults installs the plan's impairment streams and schedules its
// events. Called at the end of Build, after wiring and switchlet loads;
// the only simulation events it creates are the plan's own.
func (n *Net) applyFaults(plan *fault.Plan) error {
	g := n.Graph
	n.faultPlan = plan

	for i, seg := range n.segments {
		if m, ok := plan.SegmentModel(g.segments[i].name); ok && !m.Zero() {
			seg.SetFault(plan.SegmentStream(g.segments[i].name, m).Verdict)
		}
	}
	for i, br := range n.bridges {
		m, ok := plan.BridgeModel(g.bridges[i].name)
		if !ok || m.Zero() {
			continue
		}
		for p := 0; p < br.NumPorts(); p++ {
			br.Port(p).SetRxFault(plan.BridgePortStream(g.bridges[i].name, p, m).Verdict)
		}
	}

	// Resolve every event's target now: a typo in a plan should fail the
	// build, not silently no-op mid-run.
	for _, ev := range plan.Events() {
		ev := ev
		var apply func()
		switch ev.Op {
		case fault.OpLinkDown, fault.OpLinkUp:
			id, ok := n.segIndex(ev.Target)
			if !ok {
				return fmt.Errorf("fault plan: %s: no segment %q", ev, ev.Target)
			}
			down := ev.Op == fault.OpLinkDown
			apply = func() { n.SetSegmentDown(id, down) }
		case fault.OpPortDown, fault.OpPortUp:
			id, ok := n.bridgeIndex(ev.Target)
			if !ok {
				return fmt.Errorf("fault plan: %s: no bridge %q", ev, ev.Target)
			}
			if ev.Port < 0 || ev.Port >= n.bridges[id].NumPorts() {
				return fmt.Errorf("fault plan: %s: bridge %q has no port %d", ev, ev.Target, ev.Port)
			}
			down := ev.Op == fault.OpPortDown
			apply = func() {
				n.bridges[id].SetPortLink(ev.Port, down)
				fault.NoteFlap()
			}
		case fault.OpCrash:
			id, ok := n.bridgeIndex(ev.Target)
			if !ok {
				return fmt.Errorf("fault plan: %s: no bridge %q", ev, ev.Target)
			}
			apply = func() {
				n.bridges[id].Crash()
				fault.NoteCrash()
			}
		case fault.OpRestart:
			id, ok := n.bridgeIndex(ev.Target)
			if !ok {
				return fmt.Errorf("fault plan: %s: no bridge %q", ev, ev.Target)
			}
			apply = func() {
				if err := n.bridges[id].Restart(); err != nil {
					n.bridges[id].Log("restart: " + err.Error())
				}
				fault.NoteRestart()
			}
		default:
			return fmt.Errorf("fault plan: %s: unknown op", ev)
		}
		// Events run on n.Sim — the control engine in a sharded build,
		// which executes alone at a global barrier and may touch any
		// shard's components; serially it is just the engine.
		n.Sim.Schedule(netsim.Time(ev.At), apply)
	}
	return nil
}

// FaultPlan returns the plan the net was built with, or nil.
func (n *Net) FaultPlan() *fault.Plan { return n.faultPlan }

// segIndex resolves a declared segment name.
func (n *Net) segIndex(name string) (SegmentID, bool) {
	for i := range n.Graph.segments {
		if n.Graph.segments[i].name == name {
			return SegmentID(i), true
		}
	}
	return 0, false
}

// bridgeIndex resolves a declared bridge name.
func (n *Net) bridgeIndex(name string) (BridgeID, bool) {
	for i := range n.Graph.bridges {
		if n.Graph.bridges[i].name == name {
			return BridgeID(i), true
		}
	}
	return 0, false
}

// SetSegmentDown cuts or heals a whole segment's medium and notifies the
// managers of every attached bridge on the cut (an upgrade validating
// across the fault must roll back, not commit). Call it from a scheduled
// event on n.Sim — which is exactly what a plan's OpLinkDown/OpLinkUp
// events do — or before any Run.
func (n *Net) SetSegmentDown(id SegmentID, down bool) {
	seg := n.segments[id]
	if seg.Down() == down {
		return
	}
	seg.SetDown(down)
	fault.NoteFlap()
	if !down {
		return
	}
	for _, br := range n.bridges {
		for p := 0; p < br.NumPorts(); p++ {
			if br.Port(p).Segment() == seg {
				br.Manager().NoteFault(fmt.Sprintf("segment %s down", seg.Name))
				break
			}
		}
	}
}
