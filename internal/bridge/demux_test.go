package bridge

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
)

// The demux decides one thing per frame: which handler owns it. Every
// mutation of the handler set — direct, Manager lifecycle, or crash — must
// take effect on the very next frame, and nothing a handler computes (a
// learning table lookup that ages out) may be remembered on its behalf.

// fwdManifest is a Manager-installed data-path owner: a forwarder with a
// full lifecycle so it participates in Upgrade/Rollback and cold restart.
func fwdManifest() env.Manifest {
	return env.Manifest{
		Name:    "Fwd",
		Version: env.Version{Major: 1},
		Capabilities: []env.Capability{
			env.CapNet, env.CapDemux, env.CapFuncs,
		},
		Lifecycle: env.Lifecycle{
			Start: "fwd.start", Stop: "fwd.stop",
			Probe: "fwd.probe", Running: "fwd.running",
		},
		Source: `
let on = ref false
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Func.register "fwd.probe" (fun s -> "state")
let _ = Func.register "fwd.running" (fun s -> if !on then "yes" else "no")
let _ = Func.register "fwd.start" (fun s -> on := true; Bridge.set_handler handle; "ok")
let _ = Func.register "fwd.stop" (fun s -> on := false; "ok")`,
	}
}

// dropManifest is the upgrade candidate: it claims the data path and drops
// everything, and its probe disagrees with Fwd's so validation rolls back.
func dropManifest() env.Manifest {
	m := fwdManifest()
	m.Name = "Drop"
	m.Source = strings.ReplaceAll(m.Source, "fwd.", "drop.")
	m.Source = strings.ReplaceAll(m.Source,
		"let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt",
		"let handle pkt inport = ignore pkt; ignore inport")
	m.Source = strings.ReplaceAll(m.Source, `"state"`, `"different"`)
	m.Lifecycle = env.Lifecycle{
		Start: "drop.start", Stop: "drop.stop",
		Probe: "drop.probe", Running: "drop.running",
	}
	return m
}

// burst schedules n unicast test frames from the rig's station 1 to
// station 2 at consecutive ticks and runs the sim past their delivery.
func (r *rig) burst(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d := netsim.Duration(i + 1)
		r.sim.Schedule(r.sim.Now().Add(d), func() { r.sendFrom1(t, r.n2.MAC, 64) })
	}
	r.run(50 * netsim.Millisecond)
}

// TestDemuxFollowsHandlerRebinds pins the effect of every direct mutation of
// the handler set: set_handler replacement, a destination claim shadowing
// the default handler, releasing that claim, and clearing the data path.
func TestDemuxFollowsHandlerRebinds(t *testing.T) {
	r := newRig(t)
	var defaults, dsts int
	r.b.SetNativeHandler("count-default", func(data []byte, inPort int) { defaults++ })
	r.burst(t, 3)
	if defaults != 3 {
		t.Fatalf("defaults = %d, want 3", defaults)
	}
	// Claim the destination the default handler has been serving: the next
	// frame to n2.MAC must reach the claimant.
	if err := r.b.SetDstHandler(r.n2.MAC, FrameHandler{
		Native: func(data []byte, inPort int) { dsts++ }, Name: "count-dst",
	}); err != nil {
		t.Fatal(err)
	}
	r.burst(t, 3)
	if defaults != 3 || dsts != 3 {
		t.Fatalf("after bind: defaults = %d dsts = %d, want 3/3", defaults, dsts)
	}
	// Release the claim: frames fall back to the default handler.
	r.b.ClearDstHandler(r.n2.MAC)
	r.burst(t, 2)
	if defaults != 5 || dsts != 3 {
		t.Fatalf("after unbind: defaults = %d dsts = %d, want 5/3", defaults, dsts)
	}
	// Clear the data path entirely: nothing runs, nothing crashes.
	r.b.ClearHandler()
	r.burst(t, 2)
	if defaults != 5 || dsts != 3 {
		t.Fatalf("after clear: defaults = %d dsts = %d, want 5/3", defaults, dsts)
	}
}

// TestDemuxDoesNotPinLearningDecisions proves the demux remembers
// nothing of the handler's own forwarding decision: a learning bridge's
// table entry ages out and the same (dst → handler) binding must now
// produce a flood instead of a unicast.
func TestDemuxDoesNotPinLearningDecisions(t *testing.T) {
	sim := netsim.New()
	b := New(sim, "br", 1, 3, netsim.DefaultCostModel())
	var nics [3]*netsim.NIC
	var rx [3]int
	for i := 0; i < 3; i++ {
		i := i
		lan := netsim.NewSegment(sim, "lan")
		nics[i] = netsim.NewNIC(sim, "n", ethernet.MAC{2, 0, 0, 0, 0, byte(i + 1)})
		nics[i].Promiscuous = true
		nics[i].SetRecv(func(*netsim.NIC, []byte) { rx[i]++ })
		lan.Attach(nics[i])
		lan.Attach(b.Port(i))
	}
	// Minimal native learning handler with a 1-second age limit.
	const ageLimit = netsim.Second
	type entry struct {
		port int
		seen netsim.Time
	}
	table := map[ethernet.MAC]entry{}
	b.SetNativeHandler("mini-learning", func(data []byte, inPort int) {
		dst, _ := ethernet.PeekDst(data)
		src, _ := ethernet.PeekSrc(data)
		now := sim.Now()
		table[src] = entry{port: inPort, seen: now}
		if e, ok := table[dst]; ok && now.Sub(e.seen) < ageLimit {
			if e.port != inPort {
				b.SendBytes(e.port, data, false)
			}
			return
		}
		for i := 0; i < b.NumPorts(); i++ {
			if i != inPort {
				b.SendBytes(i, data, false)
			}
		}
	})
	send := func(from, to int) {
		fr := ethernet.Frame{Dst: nics[to].MAC, Src: nics[from].MAC,
			Type: ethernet.TypeTest, Payload: make([]byte, 64)}
		raw, err := fr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sim.Schedule(sim.Now()+1, func() { nics[from].Send(raw) })
		sim.Run(sim.Now().Add(50 * netsim.Millisecond))
	}
	// Station 1 talks first: the bridge learns it on port 1.
	send(1, 0)
	rx = [3]int{}
	// Station 0 → station 1 is now a unicast; station 2 must stay silent.
	send(0, 1)
	send(0, 1)
	if rx[1] != 2 || rx[2] != 0 {
		t.Fatalf("learned unicast: rx = %v, want port-1 only ×2", rx)
	}
	// Age the table entry out. Station 1's MAC still demuxes to the same
	// handler, but the handler must flood now.
	sim.Run(sim.Now().Add(2 * ageLimit))
	rx = [3]int{}
	send(0, 1)
	if rx[1] != 1 || rx[2] != 1 {
		t.Errorf("aged-out dst should flood: rx = %v, want ports 1 and 2", rx)
	}
}

// TestDemuxFollowsManagerEpochs pins the demux across the Manager's
// lifecycle epochs: Install claims the data path, Upgrade hands it off
// atomically, and a failed validation Rollback hands it back — each after
// traffic has been flowing through the previous epoch's handler.
func TestDemuxFollowsManagerEpochs(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(fwdManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("fwd.start", ""); err != nil {
		t.Fatal(err)
	}
	r.burst(t, 3)
	if r.rx2 != 3 {
		t.Fatalf("installed forwarder: rx2 = %d, want 3", r.rx2)
	}
	// Upgrade to the dropper: after the handoff no frame may reach Fwd's
	// handler — a stale binding would keep forwarding with the old closure.
	u, err := man.Upgrade("Fwd", dropManifest(), UpgradeOptions{
		SuppressFor: 100 * netsim.Millisecond, ValidateAfter: 2 * netsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.burst(t, 3)
	if r.rx2 != 3 {
		t.Fatalf("after handoff to dropper: rx2 = %d, want 3 (frames dropped)", r.rx2)
	}
	// The probes disagree, so validation rolls back to Fwd; its handler
	// re-claims the path.
	r.run(3 * netsim.Second)
	if u.State() != UpgradeRolledBack {
		t.Fatalf("state = %v (reason %q), want rolled-back", u.State(), u.Reason)
	}
	r.burst(t, 2)
	if r.rx2 != 5 {
		t.Errorf("after rollback: rx2 = %d, want 5 (forwarding restored)", r.rx2)
	}
}

// TestDemuxAcrossCrashRestart pins the demux across the fault plane: a
// crashed node forwards nothing, and after the cold restart frames reach
// the re-installed handler.
func TestDemuxAcrossCrashRestart(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(fwdManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("fwd.start", ""); err != nil {
		t.Fatal(err)
	}
	r.burst(t, 3)
	if r.rx2 != 3 {
		t.Fatalf("rx2 = %d, want 3", r.rx2)
	}
	r.b.Crash()
	r.burst(t, 2)
	if r.rx2 != 3 {
		t.Fatalf("crashed node forwarded: rx2 = %d, want 3", r.rx2)
	}
	if err := r.b.Restart(); err != nil {
		t.Fatal(err)
	}
	r.burst(t, 3)
	if r.rx2 != 6 {
		t.Errorf("after cold restart: rx2 = %d, want 6", r.rx2)
	}
}
