package switchlets_test

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/experiments"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
)

// transition builds the §5.4 net — injector -- lan0 -- b1 -- lan1 -- b2
// -- lan2 — running spanningSrc as the dormant IEEE switchlet. The
// injector doubles as h1, and h2 is a station added on lan2.
func transition(t *testing.T, spanningSrc string) (tn *experiments.TransitionNet, h1, h2 *testHost) {
	t.Helper()
	tn, err := experiments.NewTransitionNet(2, spanningSrc, netsim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	h2 = newHost(tn.Sim, "h2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	tn.Bridges[1].Port(1).Segment().Attach(h2.nic)
	return tn, &testHost{nic: tn.Injector}, h2
}

func TestProtocolTransitionTable1(t *testing.T) {
	n, h1, h2 := transition(t, switchlets.SpanningSrc)

	// Phase: DEC converges; IEEE dormant; control armed.
	n.Sim.Run(netsim.Time(40 * netsim.Second))
	for _, b := range n.Bridges {
		if got := n.Query(b, "dec.running"); got != "yes" {
			t.Fatalf("%s: dec.running = %s", b.Name, got)
		}
		if got := n.Query(b, "ieee.running"); got != "no" {
			t.Fatalf("%s: ieee.running = %s (must be dormant)", b.Name, got)
		}
		if got := n.Query(b, "control.phase"); got != "monitoring" {
			t.Fatalf("%s: control.phase = %s", b.Name, got)
		}
	}
	// DEC tree converged: b1 (lower MAC) is root; data flows after 2x
	// forward delay.
	decTree1 := n.Query(n.Bridges[0], "dec.tree")
	if !strings.Contains(decTree1, "rp=-1") {
		t.Errorf("b1 should be DEC root: %s", decTree1)
	}

	// Inject the IEEE BPDU (Table 1: "recv IEEE packet").
	injectAt := n.Sim.Now()
	n.Sim.Schedule(injectAt+1, func() { n.InjectIEEE() })
	n.Sim.Run(injectAt + netsim.Time(2*netsim.Second))

	// Both bridges must have transitioned: DEC suspended, IEEE running.
	for _, b := range n.Bridges {
		if got := n.Query(b, "dec.running"); got != "no" {
			t.Errorf("%s: dec.running = %s after transition", b.Name, got)
		}
		if got := n.Query(b, "ieee.running"); got != "yes" {
			t.Errorf("%s: ieee.running = %s after transition", b.Name, got)
		}
		if got := n.Query(b, "control.phase"); got != "transition" {
			t.Errorf("%s: control.phase = %s, want transition", b.Name, got)
		}
	}

	// 30 seconds: suppression period ends.
	n.Sim.Run(injectAt + netsim.Time(35*netsim.Second))
	for _, b := range n.Bridges {
		if got := n.Query(b, "control.phase"); got != "validating" {
			t.Errorf("%s: control.phase = %s, want validating", b.Name, got)
		}
	}

	// 60 seconds: tests run and pass; transition complete.
	n.Sim.Run(injectAt + netsim.Time(70*netsim.Second))
	for _, b := range n.Bridges {
		if got := n.Query(b, "control.phase"); got != "complete" {
			t.Errorf("%s: control.phase = %s, want complete", b.Name, got)
		}
		if got := n.Query(b, "ieee.running"); got != "yes" {
			t.Errorf("%s: ieee.running = %s at completion", b.Name, got)
		}
	}
	// The new protocol's tree matches the captured old tree.
	ieee1 := n.Query(n.Bridges[0], "ieee.tree")
	capt1 := n.Query(n.Bridges[0], "control.dec_tree")
	if ieee1 != capt1 {
		t.Errorf("b1 trees differ:\nieee: %s\ndec : %s", ieee1, capt1)
	}

	// Data plane works again end to end.
	resume := n.Sim.Now()
	n.Sim.Schedule(resume+1, func() { h1.send(t, h2.nic.MAC, 200) })
	n.Sim.Run(resume + netsim.Time(2*netsim.Second))
	if h2.tests() == 0 {
		t.Error("data traffic does not flow after completed transition")
	}
}

func TestProtocolTransitionFallbackOnBuggySwitchlet(t *testing.T) {
	// Load the deliberately broken 802.1D implementation: its spanning
	// tree differs from the DEC-captured one, so validation must fail and
	// the bridge must fall back to the old protocol automatically —
	// "the Active Bridge can protect itself from some algorithmic
	// failures in loadable modules."
	n, h1, h2 := transition(t, switchlets.BuggySpanningSrc)
	n.Sim.Run(netsim.Time(40 * netsim.Second))

	injectAt := n.Sim.Now()
	n.Sim.Schedule(injectAt+1, func() { n.InjectIEEE() })

	// Run well past the 60 s validation point.
	n.Sim.Run(injectAt + netsim.Time(90*netsim.Second))

	fellBack := 0
	for _, b := range n.Bridges {
		if got := n.Query(b, "control.phase"); got == "fallback" {
			fellBack++
		}
	}
	if fellBack != 2 {
		t.Fatalf("bridges fallen back = %d, want 2\nlogs:\n%s",
			fellBack, strings.Join(n.Logs, "\n"))
	}
	for _, b := range n.Bridges {
		if got := n.Query(b, "dec.running"); got != "yes" {
			t.Errorf("%s: dec.running = %s after fallback", b.Name, got)
		}
		if got := n.Query(b, "ieee.running"); got != "no" {
			t.Errorf("%s: ieee.running = %s after fallback", b.Name, got)
		}
	}

	// The restarted old protocol carries traffic again.
	resume := n.Sim.Now()
	n.Sim.Run(resume + netsim.Time(35*netsim.Second)) // DEC re-converges
	n.Sim.Schedule(n.Sim.Now()+1, func() { h1.send(t, h2.nic.MAC, 128) })
	n.Sim.Run(n.Sim.Now() + netsim.Time(2*netsim.Second))
	if h2.tests() == 0 {
		t.Error("data traffic does not flow after fallback to DEC")
	}

	// Fallback is sticky: "no further transition will occur without
	// human intervention". A second IEEE BPDU changes nothing.
	n.Sim.Schedule(n.Sim.Now()+1, func() { n.InjectIEEE() })
	n.Sim.Run(n.Sim.Now() + netsim.Time(5*netsim.Second))
	for _, b := range n.Bridges {
		if got := n.Query(b, "dec.running"); got != "yes" {
			t.Errorf("%s: transition re-triggered after fallback", b.Name)
		}
	}
}

func TestTransitionLogsTellTheStory(t *testing.T) {
	n, _, _ := transition(t, switchlets.SpanningSrc)
	n.Sim.Run(netsim.Time(40 * netsim.Second))
	at := n.Sim.Now()
	n.Sim.Schedule(at+1, func() { n.InjectIEEE() })
	n.Sim.Run(at + netsim.Time(70*netsim.Second))
	all := strings.Join(n.Logs, "\n")
	for _, want := range []string{
		"control: armed",
		"control: IEEE BPDU observed",
		"dec: spanning tree stopped",
		"ieee: spanning tree started",
		"control: suppression period over",
		"control: tests passed",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("log missing %q\nlogs:\n%s", want, all)
		}
	}
}
