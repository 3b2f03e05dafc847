package experiments

import (
	"errors"
	"fmt"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
	"github.com/switchware/activebridge/internal/stp"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
)

// TransitionNet is the §5.4 network: two active bridges in a line with an
// injector station that triggers the upgrade.
type TransitionNet struct {
	Sim      *netsim.Sim
	Bridges  []*bridge.Bridge
	Injector *netsim.NIC
	Logs     []string
}

// NewTransitionNet wires n bridges in a line, loads learning + DEC
// (running) + the given IEEE source (dormant) + control on each, and
// returns the network ready for injection. spanningSrc lets callers choose
// the correct or the deliberately buggy 802.1D implementation.
func NewTransitionNet(n int, spanningSrc string, cost netsim.CostModel) (*TransitionNet, error) {
	tn := &TransitionNet{}
	sink := func(at netsim.Time, br, msg string) {
		tn.Logs = append(tn.Logs, fmt.Sprintf("%8.3fs %s: %s", at.Seconds(), br, msg))
	}
	g := topo.New("transition")
	segs, bIDs := span(g, n, false, "lan", func(i int) topo.BridgeID {
		return g.AddBridge(fmt.Sprintf("b%d", i+1), topo.AgilityBridge, 2,
			topo.WithSpanningSrc(spanningSrc),
			topo.WithLogSink(sink))
	})
	inj := g.AddTap("injector", ethernet.MAC{2, 0, 0, 0, 0, 0x99})
	g.Link(inj, segs[0])
	net, err := g.Build(cost)
	if err != nil {
		return nil, err
	}
	tn.Sim = net.Sim
	for _, id := range bIDs {
		tn.Bridges = append(tn.Bridges, net.Bridge(id))
	}
	tn.Injector = net.Tap(inj)
	return tn, nil
}

// InjectIEEE sends the triggering 802.1D configuration BPDU.
func (tn *TransitionNet) InjectIEEE() {
	tn.Injector.Send(stp.RootClaimFrame(tn.Injector.MAC))
}

// Query invokes a registered Func on a bridge through its lifecycle
// manager and returns the string result.
func (tn *TransitionNet) Query(b *bridge.Bridge, name string) string {
	v, err := b.Manager().Query(name, "")
	if err != nil {
		if errors.Is(err, bridge.ErrNoSuchFunc) {
			return "<unregistered>"
		}
		return "<trap: " + err.Error() + ">"
	}
	return v
}

func (tn *TransitionNet) snapshot(b *bridge.Bridge) (dec, ieee, control string) {
	return tn.Query(b, "dec.running"), tn.Query(b, "ieee.running"), tn.Query(b, "control.phase")
}

// Table1Transition reproduces the automatic protocol transition state
// table. The rows sample bridge 1 at the same points Table 1 lists.
func Table1Transition(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Table 1: automatic protocol transition (bridge 1)",
		Header: []string{"action", "DEC", "IEEE", "control"},
	}
	tn, err := NewTransitionNet(2, switchlets.SpanningSrc, cost)
	if err != nil {
		return nil, err
	}
	b := tn.Bridges[0]
	// row samples bridge 1 and holds it to the paper's Table 1 line.
	row := func(action, wantDEC, wantIEEE, wantControl string) {
		dec, ieee, ctl := tn.snapshot(b)
		decS := map[string]string{"yes": "running", "no": "loaded"}[dec]
		ieeeS := map[string]string{"yes": "running", "no": "loaded"}[ieee]
		t.Expect(decS == wantDEC && ieeeS == wantIEEE && ctl == wantControl,
			"%s: DEC %s, IEEE %s, control %s; paper Table 1 has %s, %s, %s",
			action, decS, ieeeS, ctl, wantDEC, wantIEEE, wantControl)
		t.AddRow(action, decS, ieeeS, ctl)
	}

	tn.Sim.Run(netsim.Time(40 * netsim.Second)) // DEC converges
	row("load/start", "running", "loaded", "monitoring")

	at := tn.Sim.Now()
	tn.Sim.Schedule(at+1, func() { tn.InjectIEEE() })
	tn.Sim.Run(at + netsim.Time(2*netsim.Second))
	row("recv IEEE packet", "loaded", "running", "transition")

	tn.Sim.Run(at + netsim.Time(31*netsim.Second))
	row("30 seconds", "loaded", "running", "validating")

	tn.Sim.Run(at + netsim.Time(61*netsim.Second))
	row("60 seconds", "loaded", "running", "complete")

	tn.Sim.Run(at + netsim.Time(70*netsim.Second))
	row("pass tests", "loaded", "running", "complete")

	t.AddNote("paper Table 1 sequence: running/loaded -> suspend+capture -> start IEEE -> suppress -> tests -> terminate")
	return t, nil
}

// Table1Fallback runs the same experiment with the buggy 802.1D switchlet:
// validation fails and the bridges return to the DEC protocol.
func Table1Fallback(cost netsim.CostModel) (*report.Table, error) {
	t := &report.Table{
		Title:  "Table 1 (failure row): buggy IEEE switchlet triggers automatic fallback",
		Header: []string{"when", "bridge", "DEC", "IEEE", "control"},
	}
	tn, err := NewTransitionNet(2, switchlets.BuggySpanningSrc, cost)
	if err != nil {
		return nil, err
	}
	tn.Sim.Run(netsim.Time(40 * netsim.Second))
	at := tn.Sim.Now()
	tn.Sim.Schedule(at+1, func() { tn.InjectIEEE() })
	tn.Sim.Run(at + netsim.Time(90*netsim.Second))
	for i, b := range tn.Bridges {
		dec, ieee, ctl := tn.snapshot(b)
		t.Expect(dec == "yes" && ieee == "no" && ctl == "fallback",
			"b%d did not fall back to DEC: dec.running=%s ieee.running=%s control.phase=%s", i+1, dec, ieee, ctl)
		t.AddRow("after tests", fmt.Sprintf("b%d", i+1), dec, ieee, ctl)
	}
	t.AddNote("paper: 'fail tests or fallback' row — stop IEEE; start DEC; no further transition without human intervention")
	return t, nil
}
