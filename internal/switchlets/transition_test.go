package switchlets

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/stp"
)

// transitionNet is the §5.4 testbed: h1 -- lan1 -- b1 -- lan2 -- b2 -- lan3 -- h2
// with an injector station on lan1 that can send a single 802.1D BPDU.
type transitionNet struct {
	sim      *netsim.Sim
	b1, b2   *bridge.Bridge
	h1, h2   *testHost
	injector *testHost
	logs     []string
}

func buildTransition(t *testing.T, spanningSrc string) *transitionNet {
	t.Helper()
	n := &transitionNet{sim: netsim.New()}
	cost := netsim.DefaultCostModel()
	n.b1 = bridge.New(n.sim, "b1", 1, 2, cost)
	n.b2 = bridge.New(n.sim, "b2", 2, 2, cost)
	sink := func(at netsim.Time, br, msg string) {
		n.logs = append(n.logs, br+": "+msg)
	}
	n.b1.LogSink = sink
	n.b2.LogSink = sink

	lan1 := netsim.NewSegment(n.sim, "lan1")
	lan2 := netsim.NewSegment(n.sim, "lan2")
	lan3 := netsim.NewSegment(n.sim, "lan3")
	n.h1 = newHost(n.sim, "h1", ethernet.MAC{2, 0, 0, 0, 0, 1})
	n.h2 = newHost(n.sim, "h2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	n.injector = newHost(n.sim, "inj", ethernet.MAC{2, 0, 0, 0, 0, 99})
	lan1.Attach(n.h1.nic)
	lan1.Attach(n.injector.nic)
	lan1.Attach(n.b1.Port(0))
	lan2.Attach(n.b1.Port(1))
	lan2.Attach(n.b2.Port(0))
	lan3.Attach(n.h2.nic)
	lan3.Attach(n.b2.Port(1))

	// Paper loading order: learning, DEC (starts), IEEE (dormant), control.
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if err := loadLearning(b); err != nil {
			t.Fatal(err)
		}
		if err := loadDEC(b); err != nil {
			t.Fatal(err)
		}
		if err := compileAndLoad(b, ModSpanning, spanningSrc); err != nil {
			t.Fatal(err)
		}
		if err := loadControl(b); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func (n *transitionNet) funcStr(t *testing.T, b *bridge.Bridge, name, arg string) string {
	t.Helper()
	fn, ok := b.Funcs.Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	v, err := b.Machine.Invoke(fn, arg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v.(string)
}

// injectIEEE sends one 802.1D configuration BPDU from the injector, the
// event that triggers the network-wide transition.
func (n *transitionNet) injectIEEE(t *testing.T) {
	t.Helper()
	v := stp.Vector{
		RootID: stp.MakeBridgeID(0x8000, n.injector.nic.MAC),
		Bridge: stp.MakeBridgeID(0x8000, n.injector.nic.MAC),
	}
	fr := ethernet.Frame{
		Dst: ethernet.AllBridges, Src: n.injector.nic.MAC,
		Type:    ethernet.TypeBPDU,
		Payload: stp.EncodeIEEE(v, stp.Config{}.DefaultTimers()),
	}
	raw, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	n.injector.nic.Send(raw)
}

func TestProtocolTransitionTable1(t *testing.T) {
	n := buildTransition(t, SpanningSrc)

	// Phase: DEC converges; IEEE dormant; control armed.
	n.sim.Run(netsim.Time(40 * netsim.Second))
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "dec.running", ""); got != "yes" {
			t.Fatalf("%s: dec.running = %s", b.Name, got)
		}
		if got := n.funcStr(t, b, "ieee.running", ""); got != "no" {
			t.Fatalf("%s: ieee.running = %s (must be dormant)", b.Name, got)
		}
		if got := n.funcStr(t, b, "control.phase", ""); got != "monitoring" {
			t.Fatalf("%s: control.phase = %s", b.Name, got)
		}
	}
	// DEC tree converged: b1 (lower MAC) is root; data flows after 2x
	// forward delay.
	decTree1 := n.funcStr(t, n.b1, "dec.tree", "")
	if !strings.Contains(decTree1, "rp=-1") {
		t.Errorf("b1 should be DEC root: %s", decTree1)
	}

	// Inject the IEEE BPDU (Table 1: "recv IEEE packet").
	injectAt := n.sim.Now()
	n.sim.Schedule(injectAt+1, func() { n.injectIEEE(t) })
	n.sim.Run(injectAt + netsim.Time(2*netsim.Second))

	// Both bridges must have transitioned: DEC suspended, IEEE running.
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "dec.running", ""); got != "no" {
			t.Errorf("%s: dec.running = %s after transition", b.Name, got)
		}
		if got := n.funcStr(t, b, "ieee.running", ""); got != "yes" {
			t.Errorf("%s: ieee.running = %s after transition", b.Name, got)
		}
		if got := n.funcStr(t, b, "control.phase", ""); got != "transition" {
			t.Errorf("%s: control.phase = %s, want transition", b.Name, got)
		}
	}

	// 30 seconds: suppression period ends.
	n.sim.Run(injectAt + netsim.Time(35*netsim.Second))
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "control.phase", ""); got != "validating" {
			t.Errorf("%s: control.phase = %s, want validating", b.Name, got)
		}
	}

	// 60 seconds: tests run and pass; transition complete.
	n.sim.Run(injectAt + netsim.Time(70*netsim.Second))
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "control.phase", ""); got != "complete" {
			t.Errorf("%s: control.phase = %s, want complete", b.Name, got)
		}
		if got := n.funcStr(t, b, "ieee.running", ""); got != "yes" {
			t.Errorf("%s: ieee.running = %s at completion", b.Name, got)
		}
	}
	// The new protocol's tree matches the captured old tree.
	ieee1 := n.funcStr(t, n.b1, "ieee.tree", "")
	capt1 := n.funcStr(t, n.b1, "control.dec_tree", "")
	if ieee1 != capt1 {
		t.Errorf("b1 trees differ:\nieee: %s\ndec : %s", ieee1, capt1)
	}

	// Data plane works again end to end.
	resume := n.sim.Now()
	n.sim.Schedule(resume+1, func() { n.h1.send(t, n.h2.nic.MAC, 200) })
	n.sim.Run(resume + netsim.Time(2*netsim.Second))
	found := false
	for _, raw := range n.h2.rx {
		if ty, _ := ethernet.PeekType(raw); ty == ethernet.TypeTest {
			found = true
		}
	}
	if !found {
		t.Error("data traffic does not flow after completed transition")
	}
}

func TestProtocolTransitionFallbackOnBuggySwitchlet(t *testing.T) {
	// Load the deliberately broken 802.1D implementation: its spanning
	// tree differs from the DEC-captured one, so validation must fail and
	// the bridge must fall back to the old protocol automatically —
	// "the Active Bridge can protect itself from some algorithmic
	// failures in loadable modules."
	n := buildTransition(t, BuggySpanningSrc)
	n.sim.Run(netsim.Time(40 * netsim.Second))

	injectAt := n.sim.Now()
	n.sim.Schedule(injectAt+1, func() { n.injectIEEE(t) })

	// Run well past the 60 s validation point.
	n.sim.Run(injectAt + netsim.Time(90*netsim.Second))

	fellBack := 0
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "control.phase", ""); got == "fallback" {
			fellBack++
		}
	}
	if fellBack != 2 {
		t.Fatalf("bridges fallen back = %d, want 2\nlogs:\n%s",
			fellBack, strings.Join(n.logs, "\n"))
	}
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "dec.running", ""); got != "yes" {
			t.Errorf("%s: dec.running = %s after fallback", b.Name, got)
		}
		if got := n.funcStr(t, b, "ieee.running", ""); got != "no" {
			t.Errorf("%s: ieee.running = %s after fallback", b.Name, got)
		}
	}

	// The restarted old protocol carries traffic again.
	resume := n.sim.Now()
	n.sim.Run(resume + netsim.Time(35*netsim.Second)) // DEC re-converges
	n.sim.Schedule(n.sim.Now()+1, func() { n.h1.send(t, n.h2.nic.MAC, 128) })
	n.sim.Run(n.sim.Now() + netsim.Time(2*netsim.Second))
	found := false
	for _, raw := range n.h2.rx {
		if ty, _ := ethernet.PeekType(raw); ty == ethernet.TypeTest {
			found = true
		}
	}
	if !found {
		t.Error("data traffic does not flow after fallback to DEC")
	}

	// Fallback is sticky: "no further transition will occur without
	// human intervention". A second IEEE BPDU changes nothing.
	n.sim.Schedule(n.sim.Now()+1, func() { n.injectIEEE(t) })
	n.sim.Run(n.sim.Now() + netsim.Time(5*netsim.Second))
	for _, b := range []*bridge.Bridge{n.b1, n.b2} {
		if got := n.funcStr(t, b, "dec.running", ""); got != "yes" {
			t.Errorf("%s: transition re-triggered after fallback", b.Name)
		}
	}
}

func TestTransitionLogsTellTheStory(t *testing.T) {
	n := buildTransition(t, SpanningSrc)
	n.sim.Run(netsim.Time(40 * netsim.Second))
	at := n.sim.Now()
	n.sim.Schedule(at+1, func() { n.injectIEEE(t) })
	n.sim.Run(at + netsim.Time(70*netsim.Second))
	all := strings.Join(n.logs, "\n")
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
