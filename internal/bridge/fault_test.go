package bridge

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tftp"
)

// counter2Manifest clones counterManifest into a second, API-compatible
// version for upgrade tests.
func counter2Manifest() env.Manifest {
	next := counterManifest()
	next.Name = "Counter2"
	next.Version = env.Version{Major: 2}
	next.Source = strings.ReplaceAll(next.Source, "counter.", "counter2.")
	next.Source = strings.ReplaceAll(next.Source, `"counter_tick"`, `"counter2_tick"`)
	next.Handlers = []string{"counter2.get"}
	next.Timers = []string{"counter2_tick"}
	next.Lifecycle = env.Lifecycle{
		Start: "counter2.start", Stop: "counter2.stop",
		Probe: "counter2.probe", Running: "counter2.running",
	}
	return next
}

// startedCounterUpgrade installs and starts the counter, then begins an
// upgrade to Counter2 with a short validation window.
func startedCounterUpgrade(t *testing.T, r *rig) *Upgrade {
	t.Helper()
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	u, err := man.Upgrade("Counter", counter2Manifest(), UpgradeOptions{
		SuppressFor: netsim.Second, ValidateAfter: 2 * netsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.State() != UpgradeValidating {
		t.Fatalf("state = %v, want validating", u.State())
	}
	return u
}

// TestUpgradeRollsBackOnLinkFlap pins the fault-aware validation
// contract: a port losing carrier during the validation window rolls the
// upgrade back immediately — the probe comparison would be measured
// across the fault — and the stale validate fire stays a no-op.
func TestUpgradeRollsBackOnLinkFlap(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	u := startedCounterUpgrade(t, r)

	// The flap arrives mid-window.
	r.run(netsim.Second)
	r.b.SetPortLink(0, true)

	if u.State() != UpgradeRolledBack {
		t.Fatalf("state = %v, want rolled-back", u.State())
	}
	if !strings.Contains(u.Reason, "fault during validation window") ||
		!strings.Contains(u.Reason, "port 0 link down") {
		t.Errorf("Reason = %q", u.Reason)
	}
	// The old switchlet is back in charge, the new one stopped.
	if v, _ := man.Query("counter.running", ""); v != "yes" {
		t.Errorf("old not running after rollback: %s", v)
	}
	if v, _ := man.Query("counter2.running", ""); v != "no" {
		t.Errorf("new still running after rollback: %s", v)
	}

	// Past ValidateAfter: the scheduled validate must not resurrect the
	// upgrade or flip the handoff.
	r.run(3 * netsim.Second)
	if u.State() != UpgradeRolledBack {
		t.Errorf("stale validate changed state to %v", u.State())
	}
	if v, _ := man.Query("counter.running", ""); v != "yes" {
		t.Errorf("old stopped by stale validate: %s", v)
	}

	// Healing the link is not a fault; after clearing the stopped new
	// image a fresh upgrade commits.
	r.b.SetPortLink(0, false)
	if err := man.Uninstall("Counter2"); err != nil {
		t.Fatal(err)
	}
	u2, err := man.Upgrade("Counter", counter2Manifest(), UpgradeOptions{
		SuppressFor: netsim.Second, ValidateAfter: 2 * netsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(3 * netsim.Second)
	if u2.State() != UpgradeCommitted {
		t.Errorf("clean retry = %v (reason %q), want committed", u2.State(), u2.Reason)
	}
}

// TestCrashDuringValidationRollsBackAndRestores: a fault-plane crash in
// the validation window marks the upgrade rolled back in the crash
// snapshot, and the cold restart re-installs and restarts the OLD
// switchlet — the new one dies with the node.
func TestCrashDuringValidationRollsBackAndRestores(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	u := startedCounterUpgrade(t, r)

	r.run(netsim.Second)
	r.b.Crash()

	if u.State() != UpgradeRolledBack {
		t.Fatalf("state = %v, want rolled-back", u.State())
	}
	if u.Reason != "bridge crashed during validation window" {
		t.Errorf("Reason = %q", u.Reason)
	}

	if err := r.b.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, ok := man.Installed("Counter"); !ok {
		t.Error("old switchlet not re-installed from the crash snapshot")
	}
	if _, ok := man.Installed("Counter2"); ok {
		t.Error("rolled-back upgrade's new switchlet survived the crash")
	}
	if v, _ := man.Query("counter.running", ""); v != "yes" {
		t.Errorf("old switchlet not restarted: %s", v)
	}
	// The dead upgrade stays dead past its ValidateAfter.
	r.run(3 * netsim.Second)
	if u.State() != UpgradeRolledBack {
		t.Errorf("post-restart validate changed state to %v", u.State())
	}
	if r.b.Stats.Crashes != 1 || r.b.Stats.Restarts != 1 {
		t.Errorf("Stats crashes/restarts = %d/%d, want 1/1", r.b.Stats.Crashes, r.b.Stats.Restarts)
	}
}

// TestCrashRestartColdState pins the power-cut semantics: a crashed node
// reports Crashed, drops carrier on every port, answers no queries, and
// comes back cold — Manager-installed manifests restored and running,
// learning state wiped (covered at the netsim layer), timers dead until
// re-armed by the restarted switchlet.
func TestCrashRestartColdState(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	// Let the tick timer fire a few times so the counter holds state that
	// must NOT survive the crash.
	r.run(netsim.Second)
	if v, _ := man.Query("counter.get", ""); v == "0" {
		t.Fatal("timer never fired before the crash")
	}

	r.b.Crash()
	if !r.b.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	for p := 0; p < r.b.NumPorts(); p++ {
		if !r.b.Port(p).LinkDown() {
			t.Errorf("port %d still has carrier while crashed", p)
		}
	}
	// Crash is idempotent: a second power cut on a dead node is a no-op.
	r.b.Crash()
	if r.b.Stats.Crashes != 1 {
		t.Errorf("double crash counted: %d", r.b.Stats.Crashes)
	}

	if err := r.b.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if r.b.Crashed() {
		t.Error("still crashed after Restart")
	}
	for p := 0; p < r.b.NumPorts(); p++ {
		if r.b.Port(p).LinkDown() {
			t.Errorf("port %d carrier not restored", p)
		}
	}
	// Cold state: the VM heap died, so the counter restarts from zero and
	// its lifecycle Start ran again (the snapshot recorded it running).
	if v, err := man.Query("counter.running", ""); err != nil || v != "yes" {
		t.Errorf("counter.running = %q, %v", v, err)
	}
	if v, _ := man.Query("counter.get", ""); v != "0" {
		t.Errorf("counter state survived the crash: %s", v)
	}
	// The re-armed timer ticks again after restart.
	r.run(netsim.Second)
	if v, _ := man.Query("counter.get", ""); v == "0" {
		t.Error("timer not re-armed after cold restart")
	}
	// Restart on a running node is a no-op.
	if err := r.b.Restart(); err != nil {
		t.Errorf("redundant restart: %v", err)
	}
	if r.b.Stats.Restarts != 1 {
		t.Errorf("double restart counted: %d", r.b.Stats.Restarts)
	}
}

// TestCrashDropsQueuedNetLoaderReply pins that the network loader's
// replies leave through the same crash-safe completion path as a
// switchlet's frames: a WRQ's ack still waiting for its CPU job when the
// node crashes dies with the node, even though the node restarts before
// that job completes.
func TestCrashDropsQueuedNetLoaderReply(t *testing.T) {
	for _, crash := range []bool{false, true} {
		sim := netsim.New()
		b := New(sim, "br", 1, 2, netsim.DefaultCostModel())
		loaderIP := ipv4.Addr{10, 0, 0, 100}
		b.EnableNetLoader(loaderIP)
		lan := netsim.NewSegment(sim, "lan")
		peer := netsim.NewNIC(sim, "peer", ethernet.MAC{2, 0, 0, 0, 0, 1})
		rx := 0
		peer.SetRecv(func(*netsim.NIC, []byte) { rx++ })
		lan.Attach(peer)
		lan.Attach(b.Port(0))

		wrq := tftp.Marshal(&tftp.Request{Write: true, Filename: "sw.swo", Mode: "octet"})
		b.onFrame(0, loaderFrameTo(t, b.MAC(), loaderIP, tftp.Port, wrq))
		if b.CPU().Backlog() == 0 {
			t.Fatal("the WRQ booked no CPU job")
		}
		sent := b.Stats.FramesSent
		want, wantSent := 1, sent+1
		if crash {
			b.Crash()
			if err := b.Restart(); err != nil {
				t.Fatal(err)
			}
			want, wantSent = 0, sent
		}
		sim.Run(sim.Now() + netsim.Time(100*netsim.Millisecond))
		if rx != want || b.Stats.FramesSent != wantSent {
			t.Errorf("crash=%v: peer received %d, FramesSent %d → %d; want %d, %d",
				crash, rx, sent, b.Stats.FramesSent, want, wantSent)
		}
	}
}
