package activebridge_test

import (
	"strings"
	"testing"

	ab "github.com/switchware/activebridge/pkg/activebridge"
)

// transitionNet is the §5.4 testbed built entirely through the public
// API: h1 -- lan1 -- b1 -- lan2 -- b2 -- lan3 -- h2, with each bridge
// running learning + the DEC spanning tree, installed from manifests.
// The IEEE protocol is NOT pre-loaded and no control switchlet exists:
// the transition is driven by Manager.Upgrade instead.
type transitionNet struct {
	net    *ab.Net
	b1, b2 *ab.Bridge
	h1, h2 ab.HostID
	logs   []string
}

func buildTransitionNet(t *testing.T) *transitionNet {
	t.Helper()
	tn := &transitionNet{}
	sink := func(_ ab.Time, br, msg string) {
		tn.logs = append(tn.logs, br+": "+msg)
	}
	g := ab.NewTopology("sdk-transition")
	tn.h1 = g.AddHost("h1")
	tn.h2 = g.AddHost("h2")
	b1 := g.AddBridge("b1", ab.EmptyBridge, 2, ab.WithLogSink(sink))
	b2 := g.AddBridge("b2", ab.EmptyBridge, 2, ab.WithLogSink(sink))
	lan1, lan2, lan3 := g.AddSegment("lan1"), g.AddSegment("lan2"), g.AddSegment("lan3")
	g.Link(tn.h1, lan1)
	g.Link(b1, lan1)
	g.Link(b1, lan2)
	g.Link(b2, lan2)
	g.Link(tn.h2, lan3)
	g.Link(b2, lan3)
	net, err := g.Build(ab.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	tn.net = net
	tn.b1, tn.b2 = net.Bridge(b1), net.Bridge(b2)

	// Paper loading order, through manifests: learning, then the old
	// protocol (which starts immediately).
	for _, b := range []*ab.Bridge{tn.b1, tn.b2} {
		if _, err := b.Manager().Install(ab.LearningSwitchlet()); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Manager().Install(ab.DECSwitchlet()); err != nil {
			t.Fatal(err)
		}
	}
	return tn
}

func (tn *transitionNet) query(t *testing.T, b *ab.Bridge, fn string) string {
	t.Helper()
	v, err := b.Manager().Query(fn, "")
	if err != nil {
		t.Fatalf("%s %s: %v", b.Name, fn, err)
	}
	return v
}

// dataFlows sends one test frame h1 -> h2 and reports whether it arrived.
func (tn *transitionNet) dataFlows(t *testing.T) bool {
	t.Helper()
	sim := tn.net.Sim
	h2 := tn.net.Host(tn.h2)
	before := h2.FramesIn
	sim.Schedule(sim.Now()+1, func() {
		_ = tn.net.Host(tn.h1).SendTest(h2.MAC, make([]byte, 64))
	})
	sim.Run(sim.Now() + ab.Time(2*ab.Second))
	return h2.FramesIn > before
}

// TestUpgradeReproducesDECToIEEETransition drives the paper's §5.4
// protocol transition purely through the public API: DEC converges, the
// operator upgrades both nodes to IEEE 802.1D in one virtual instant,
// and validation at 60 s confirms the new protocol reproduced the old
// tree — the same convergence outcome as the in-network control
// switchlet (internal/switchlets/transition_test.go).
func TestUpgradeReproducesDECToIEEETransition(t *testing.T) {
	tn := buildTransitionNet(t)
	sim := tn.net.Sim

	// DEC converges; b1 (lower id) is root.
	sim.Run(ab.Time(40 * ab.Second))
	for _, b := range []*ab.Bridge{tn.b1, tn.b2} {
		if got := tn.query(t, b, "dec.running"); got != "yes" {
			t.Fatalf("%s: dec.running = %s", b.Name, got)
		}
	}
	decTree1 := tn.query(t, tn.b1, "dec.tree")
	if !strings.Contains(decTree1, "rp=-1") {
		t.Fatalf("b1 should be DEC root: %s", decTree1)
	}
	if !tn.dataFlows(t) {
		t.Fatal("no data flow under converged DEC")
	}

	// The upgrade: both nodes at one virtual instant, old and new
	// co-resident, atomic handoff, validation armed.
	var u1, u2 *ab.Upgrade
	at := sim.Now()
	sim.Schedule(at+1, func() {
		var err error
		u1, err = tn.b1.Manager().Upgrade("Decspan", ab.SpanningSwitchlet(), ab.DefaultUpgradeOptions())
		if err != nil {
			t.Errorf("b1 upgrade: %v", err)
			return
		}
		u2, err = tn.b2.Manager().Upgrade("Decspan", ab.SpanningSwitchlet(), ab.DefaultUpgradeOptions())
		if err != nil {
			t.Errorf("b2 upgrade: %v", err)
		}
	})
	sim.Run(at + ab.Time(2*ab.Second))
	if u1 == nil || u2 == nil {
		t.Fatal("upgrades not started")
	}

	// Handoff already happened: DEC suspended, IEEE running, both still
	// validating.
	for i, b := range []*ab.Bridge{tn.b1, tn.b2} {
		u := []*ab.Upgrade{u1, u2}[i]
		if got := tn.query(t, b, "dec.running"); got != "no" {
			t.Errorf("%s: dec.running = %s after handoff", b.Name, got)
		}
		if got := tn.query(t, b, "ieee.running"); got != "yes" {
			t.Errorf("%s: ieee.running = %s after handoff", b.Name, got)
		}
		if u.State() != ab.UpgradeValidating {
			t.Errorf("%s: state = %v", b.Name, u.State())
		}
		if u.Captured == "" {
			t.Errorf("%s: no captured old state", b.Name)
		}
	}

	// Past the validation point: committed, and the new protocol's tree
	// is exactly the captured DEC tree.
	sim.Run(at + ab.Time(70*ab.Second))
	for i, b := range []*ab.Bridge{tn.b1, tn.b2} {
		u := []*ab.Upgrade{u1, u2}[i]
		if u.State() != ab.UpgradeCommitted {
			t.Fatalf("%s: state = %v (reason %q), want committed", b.Name, u.State(), u.Reason)
		}
		ieee := tn.query(t, b, "ieee.tree")
		if ieee != u.Captured {
			t.Errorf("%s trees differ:\nieee: %s\ndec : %s", b.Name, ieee, u.Captured)
		}
	}
	if !strings.Contains(tn.query(t, tn.b1, "ieee.tree"), "rp=-1") {
		t.Error("b1 lost the root role across the transition")
	}

	// The data plane works again end to end.
	if !tn.dataFlows(t) {
		t.Error("data traffic does not flow after committed upgrade")
	}

	// The narrative is in the logs.
	all := strings.Join(tn.logs, "\n")
	for _, want := range []string{
		"manager: upgrading Decspan@1.0.0 -> Spanning@2.0.0",
		"dec: spanning tree stopped",
		"ieee: spanning tree started",
		"manager: suppression period over",
		"manager: upgrade to Spanning@2.0.0 committed",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("log missing %q\nlogs:\n%s", want, all)
		}
	}
}

// TestUpgradeRollsBackOnBuggySwitchlet installs the deliberately broken
// 802.1D implementation through the public API: its spanning tree
// differs from the captured DEC one, validation fails, and both nodes
// return to the old protocol automatically.
func TestUpgradeRollsBackOnBuggySwitchlet(t *testing.T) {
	tn := buildTransitionNet(t)
	sim := tn.net.Sim
	sim.Run(ab.Time(40 * ab.Second))

	var u1, u2 *ab.Upgrade
	at := sim.Now()
	sim.Schedule(at+1, func() {
		var err error
		u1, err = tn.b1.Manager().Upgrade("Decspan", ab.BuggySpanningSwitchlet(), ab.DefaultUpgradeOptions())
		if err != nil {
			t.Errorf("b1 upgrade: %v", err)
			return
		}
		u2, err = tn.b2.Manager().Upgrade("Decspan", ab.BuggySpanningSwitchlet(), ab.DefaultUpgradeOptions())
		if err != nil {
			t.Errorf("b2 upgrade: %v", err)
		}
	})
	sim.Run(at + ab.Time(90*ab.Second))
	if u1 == nil || u2 == nil {
		t.Fatal("upgrades not started")
	}

	for i, b := range []*ab.Bridge{tn.b1, tn.b2} {
		u := []*ab.Upgrade{u1, u2}[i]
		if u.State() != ab.UpgradeRolledBack {
			t.Fatalf("%s: state = %v, want rolled-back", b.Name, u.State())
		}
		if !strings.Contains(u.Reason, "mismatch") {
			t.Errorf("%s: reason = %q", b.Name, u.Reason)
		}
		if got := tn.query(t, b, "dec.running"); got != "yes" {
			t.Errorf("%s: dec.running = %s after rollback", b.Name, got)
		}
		if got := tn.query(t, b, "ieee.running"); got != "no" {
			t.Errorf("%s: ieee.running = %s after rollback", b.Name, got)
		}
	}

	// The restarted old protocol carries traffic again.
	sim.Run(sim.Now() + ab.Time(35*ab.Second)) // DEC re-converges
	if !tn.dataFlows(t) {
		t.Error("data traffic does not flow after rollback to DEC")
	}
}

// TestUpgradeRollsBackOnTrap exercises the immediate failure path: the
// replacement switchlet traps while starting, and the node restores the
// old protocol in the same virtual instant.
func TestUpgradeRollsBackOnTrap(t *testing.T) {
	tn := buildTransitionNet(t)
	sim := tn.net.Sim
	sim.Run(ab.Time(40 * ab.Second))

	crashy := ab.Switchlet{
		Name:         "Crashy",
		Version:      ab.MustParseVersion("0.0.1"),
		Capabilities: []ab.Capability{ab.CapFuncs},
		Lifecycle: ab.Lifecycle{
			Start: "crashy.start", Stop: "crashy.stop",
			Probe: "crashy.probe", Running: "crashy.running",
		},
		Source: `
let _ = Func.register "crashy.start" (fun s -> raise "refuses to start")
let _ = Func.register "crashy.stop" (fun s -> "ok")
let _ = Func.register "crashy.probe" (fun s -> "nothing")
let _ = Func.register "crashy.running" (fun s -> "no")`,
	}

	var u *ab.Upgrade
	var uerr error
	at := sim.Now()
	sim.Schedule(at+1, func() {
		u, uerr = tn.b1.Manager().Upgrade("Decspan", crashy, ab.DefaultUpgradeOptions())
	})
	sim.Run(at + ab.Time(2*ab.Second))

	if uerr == nil {
		t.Fatal("trapping start must surface an error")
	}
	if !strings.Contains(uerr.Error(), "rolled back") {
		t.Errorf("err = %v", uerr)
	}
	if u == nil || u.State() != ab.UpgradeRolledBack {
		t.Fatalf("upgrade record = %+v", u)
	}
	// The old protocol never stopped being the node's behaviour for more
	// than the failed instant: it is running again.
	if got := tn.query(t, tn.b1, "dec.running"); got != "yes" {
		t.Errorf("dec.running = %s after trap rollback", got)
	}
	sim.Run(sim.Now() + ab.Time(35*ab.Second))
	if !tn.dataFlows(t) {
		t.Error("data traffic does not flow after trap rollback")
	}
}

// TestManualRollbackAfterCommit is the operator's undo: a committed
// upgrade can still be reverted through the same API.
func TestManualRollbackAfterCommit(t *testing.T) {
	tn := buildTransitionNet(t)
	sim := tn.net.Sim
	sim.Run(ab.Time(40 * ab.Second))
	var u1, u2 *ab.Upgrade
	at := sim.Now()
	sim.Schedule(at+1, func() {
		var err error
		u1, err = tn.b1.Manager().Upgrade("Decspan", ab.SpanningSwitchlet(), ab.DefaultUpgradeOptions())
		if err != nil {
			t.Errorf("b1 upgrade: %v", err)
			return
		}
		u2, err = tn.b2.Manager().Upgrade("Decspan", ab.SpanningSwitchlet(), ab.DefaultUpgradeOptions())
		if err != nil {
			t.Errorf("b2 upgrade: %v", err)
		}
	})
	sim.Run(at + ab.Time(70*ab.Second))
	if u1 == nil || u2 == nil || u1.State() != ab.UpgradeCommitted || u2.State() != ab.UpgradeCommitted {
		t.Fatalf("upgrades not committed: %v / %v", u1, u2)
	}
	// The operator reverts the whole network, both nodes in one instant.
	sim.Schedule(sim.Now()+1, func() {
		if err := tn.b1.Manager().Rollback("operator decision"); err != nil {
			t.Errorf("b1 rollback: %v", err)
		}
		if err := tn.b2.Manager().Rollback("operator decision"); err != nil {
			t.Errorf("b2 rollback: %v", err)
		}
	})
	sim.Run(sim.Now() + ab.Time(2*ab.Second))
	for i, b := range []*ab.Bridge{tn.b1, tn.b2} {
		u := []*ab.Upgrade{u1, u2}[i]
		if u.State() != ab.UpgradeRolledBack || u.Reason != "operator decision" {
			t.Fatalf("%s: state = %v reason = %q", b.Name, u.State(), u.Reason)
		}
		if got := tn.query(t, b, "dec.running"); got != "yes" {
			t.Errorf("%s: dec.running = %s after manual rollback", b.Name, got)
		}
	}
	sim.Run(sim.Now() + ab.Time(35*ab.Second))
	if !tn.dataFlows(t) {
		t.Error("data traffic does not flow after network-wide manual rollback")
	}
}
