package bridge

import (
	"errors"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
)

// counterManifest is a tiny switchlet that owns a timer, a handler and a
// complete lifecycle, for exercising the Manager.
func counterManifest() env.Manifest {
	return env.Manifest{
		Name:    "Counter",
		Version: env.Version{Major: 1},
		Capabilities: []env.Capability{
			env.CapLog, env.CapFuncs, env.CapDemux,
		},
		Handlers: []string{"counter.get"},
		Timers:   []string{"counter_tick"},
		Lifecycle: env.Lifecycle{
			Start: "counter.start", Stop: "counter.stop",
			Probe: "counter.probe", Running: "counter.running",
		},
		Source: `
let n = ref 0
let on = ref false
let tick () = n := !n + 1
let _ = Func.register "counter.get" (fun s -> string_of_int !n)
let _ = Func.register "counter.probe" (fun s -> "state")
let _ = Func.register "counter.running" (fun s -> if !on then "yes" else "no")
let _ = Func.register "counter.start"
          (fun s -> on := true; Bridge.set_timer "counter_tick" 100 tick; "ok")
let _ = Func.register "counter.stop"
          (fun s -> on := false; Bridge.cancel_timer "counter_tick"; "ok")
let _ = Log.log "counter installed"`,
	}
}

func TestManagerInstallAndQuery(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	inst, err := man.Install(counterManifest())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Manifest.Ref() != "Counter@1.0.0" {
		t.Errorf("ref = %s", inst.Manifest.Ref())
	}
	if _, ok := man.Installed("Counter"); !ok {
		t.Error("Installed lookup failed")
	}
	if got := len(man.List()); got != 1 {
		t.Errorf("List len = %d", got)
	}
	v, err := man.Query("counter.get", "")
	if err != nil || v != "0" {
		t.Errorf("Query = %q, %v", v, err)
	}
	if _, err := man.Query("counter.nope", ""); !errors.Is(err, ErrNoSuchFunc) {
		t.Errorf("missing func: err = %v, want ErrNoSuchFunc", err)
	}
}

func TestManagerInstallRejectsDuplicate(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Install(counterManifest()); !errors.Is(err, ErrAlreadyInstalled) {
		t.Errorf("duplicate install: err = %v, want ErrAlreadyInstalled", err)
	}
}

func TestManagerEnforcesCapabilitiesAtInstall(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	// The counter imports Log, Func and Bridge; strip the grant down to
	// Func only and the install must be rejected before any code runs.
	m := counterManifest()
	m.Capabilities = []env.Capability{env.CapFuncs}
	loads0 := r.b.Loader.Loads
	_, err := man.Install(m)
	var ce *env.CapabilityError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CapabilityError", err)
	}
	denied := strings.Join(ce.Denied, " ")
	if !strings.Contains(denied, "Bridge") || !strings.Contains(denied, "Log") {
		t.Errorf("denied = %v", ce.Denied)
	}
	if r.b.Loader.Loads != loads0 {
		t.Error("rejected switchlet was loaded anyway")
	}
	if len(r.logs) != 0 {
		t.Errorf("rejected switchlet ran code: logs = %v", r.logs)
	}
	// Language-level units never need a grant.
	pure := env.Manifest{Name: "Pure", Source: `let x = String.length "abc"`}
	if _, err := man.Install(pure); err != nil {
		t.Errorf("capability-free switchlet rejected: %v", err)
	}
}

func TestManagerCompileChecksWithoutLoading(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	enc, err := man.Compile(counterManifest())
	if err != nil || len(enc) == 0 {
		t.Fatalf("Compile = %d bytes, %v", len(enc), err)
	}
	if len(r.b.Loader.Modules()) != 0 {
		t.Error("Compile must not load")
	}
	// The compiled bytes install as an object manifest.
	m := counterManifest()
	m.Source, m.Object = "", enc
	if _, err := man.Install(m); err != nil {
		t.Fatalf("object install: %v", err)
	}
	if v, err := man.Query("counter.get", ""); err != nil || v != "0" {
		t.Errorf("object-installed switchlet broken: %q, %v", v, err)
	}
}

func TestManagerUninstallReleasesDeclaredResources(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	r.run(250 * netsim.Millisecond) // timer ticks twice
	v, _ := man.Query("counter.get", "")
	if v != "2" {
		t.Fatalf("ticks before uninstall = %s", v)
	}
	if err := man.Uninstall("Counter"); err != nil {
		t.Fatal(err)
	}
	// Handlers and lifecycle entries are gone from the registry.
	for _, fn := range []string{"counter.get", "counter.start", "counter.running"} {
		if _, ok := r.b.Funcs.Lookup(fn); ok {
			t.Errorf("%s survived uninstall", fn)
		}
	}
	// The module name is free again and the timer no longer fires.
	if _, ok := r.b.Loader.Module("Counter"); ok {
		t.Error("module still linked")
	}
	if err := man.Uninstall("Counter"); !errors.Is(err, ErrNotInstalled) {
		t.Errorf("double uninstall: err = %v, want ErrNotInstalled", err)
	}
	if _, err := man.Install(counterManifest()); err != nil {
		t.Errorf("reinstall after uninstall: %v", err)
	}
}

func TestUpgradeCommitsWhenProbesMatch(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
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
	u, err := man.Upgrade("Counter", next, UpgradeOptions{
		SuppressFor: netsim.Second, ValidateAfter: 2 * netsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.State() != UpgradeValidating {
		t.Fatalf("state = %v", u.State())
	}
	// Handoff already happened, atomically.
	if v, _ := man.Query("counter.running", ""); v != "no" {
		t.Errorf("old still running: %s", v)
	}
	if v, _ := man.Query("counter2.running", ""); v != "yes" {
		t.Errorf("new not running: %s", v)
	}
	r.run(3 * netsim.Second)
	if u.State() != UpgradeCommitted {
		t.Errorf("state = %v (reason %q), want committed", u.State(), u.Reason)
	}
	if man.LastUpgrade() != u {
		t.Error("LastUpgrade mismatch")
	}
}

func TestUpgradeRollsBackOnProbeMismatch(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	next := counterManifest()
	next.Name = "Wrong"
	next.Source = strings.ReplaceAll(next.Source, "counter.", "wrong.")
	next.Source = strings.ReplaceAll(next.Source, `"state"`, `"different"`)
	next.Handlers = []string{"wrong.get"}
	next.Lifecycle = env.Lifecycle{
		Start: "wrong.start", Stop: "wrong.stop",
		Probe: "wrong.probe", Running: "wrong.running",
	}
	u, err := man.Upgrade("Counter", next, UpgradeOptions{
		SuppressFor: netsim.Second, ValidateAfter: 2 * netsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(3 * netsim.Second)
	if u.State() != UpgradeRolledBack {
		t.Fatalf("state = %v, want rolled-back", u.State())
	}
	if !strings.Contains(u.Reason, "mismatch") {
		t.Errorf("reason = %q", u.Reason)
	}
	// Old protocol restarted, new stopped.
	if v, _ := man.Query("counter.running", ""); v != "yes" {
		t.Errorf("old not restarted: %s", v)
	}
	if v, _ := man.Query("wrong.running", ""); v != "no" {
		t.Errorf("new still running: %s", v)
	}
}

func TestUninstallReleasesDeclaredDataPathClaims(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	target := ethernet.AllBridges
	m := env.Manifest{
		Name:         "Claimer",
		Capabilities: []env.Capability{env.CapNet, env.CapDemux},
		OwnsDataPath: true,
		DstBindings:  []ethernet.MAC{target},
		Source: `
let fwd pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let drop pkt inport = ignore pkt; ignore inport
let _ = Bridge.set_handler fwd
let _ = Bridge.set_dst_handler "\x01\x80\xc2\x00\x00\x00" drop`,
	}
	if _, err := man.Install(m); err != nil {
		t.Fatal(err)
	}
	if r.b.DefaultHandlerName() != "vm-default" {
		t.Fatalf("default handler = %q", r.b.DefaultHandlerName())
	}
	if err := man.Uninstall("Claimer"); err != nil {
		t.Fatal(err)
	}
	if r.b.DefaultHandlerName() != "" {
		t.Errorf("data-path claim survived uninstall: %q", r.b.DefaultHandlerName())
	}
	// The destination binding is free again.
	probe := FrameHandler{Name: "probe", Native: func([]byte, int) {}}
	if err := r.b.SetDstHandler(target, probe); err != nil {
		t.Errorf("dst binding survived uninstall: %v", err)
	}
	// And frames now drop instead of dispatching into uninstalled code.
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 0 || r.b.Stats.NoHandlerDrops != 1 {
		t.Errorf("rx2 = %d drops = %d after uninstall", r.rx2, r.b.Stats.NoHandlerDrops)
	}
}

func TestUninstallOfSupersededClaimerKeepsDataPath(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	claimer := func(name string) env.Manifest {
		return env.Manifest{
			Name:         name,
			Capabilities: []env.Capability{env.CapNet, env.CapDemux},
			OwnsDataPath: true,
			Source: `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle`,
		}
	}
	// The quickstart sequence: dumb then learning, each claiming the
	// data path; learning's handler is live.
	if _, err := man.Install(claimer("First")); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Install(claimer("Second")); err != nil {
		t.Fatal(err)
	}
	// Uninstalling the superseded claimer must not touch the live
	// handler.
	if err := man.Uninstall("First"); err != nil {
		t.Fatal(err)
	}
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 1 {
		t.Errorf("live handler lost when superseded claimer uninstalled: rx2 = %d", r.rx2)
	}
	// Uninstalling the current claimer does release the path.
	if err := man.Uninstall("Second"); err != nil {
		t.Fatal(err)
	}
	if r.b.DefaultHandlerName() != "" {
		t.Errorf("current claimer's handler survived uninstall: %q", r.b.DefaultHandlerName())
	}
}

func TestUpgradeTrapRollbackIsRecorded(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	crashy := env.Manifest{
		Name:         "Crashy",
		Capabilities: []env.Capability{env.CapFuncs},
		Lifecycle: env.Lifecycle{
			Start: "crashy.start", Stop: "crashy.stop",
			Probe: "crashy.probe", Running: "crashy.running",
		},
		Source: `
let _ = Func.register "crashy.start" (fun s -> raise "no")
let _ = Func.register "crashy.stop" (fun s -> "ok")
let _ = Func.register "crashy.probe" (fun s -> "x")
let _ = Func.register "crashy.running" (fun s -> "no")`,
	}
	u, err := man.Upgrade("Counter", crashy, UpgradeOptions{})
	if err == nil {
		t.Fatal("trapping start must error")
	}
	if man.LastUpgrade() != u {
		t.Error("trap rollback missing from upgrade history")
	}
	if u.State() != UpgradeRolledBack {
		t.Errorf("state = %v", u.State())
	}
	// Neither manifest declares a protocol address, so the upgrade
	// claimed none: no guard, no fallback drain.
	if len(r.b.dstHandlers) != 0 {
		t.Errorf("upgrade without protocol addresses claimed %d destinations", len(r.b.dstHandlers))
	}
}

func TestUpgradeGuardDefaultsToLifecycleProtoAddr(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	old := counterManifest()
	old.Lifecycle.ProtoAddr = ethernet.DECBridges
	if _, err := man.Install(old); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	next := counterManifest()
	next.Name = "Counter2"
	next.Source = strings.ReplaceAll(next.Source, "counter.", "counter2.")
	next.Source = strings.ReplaceAll(next.Source, `"counter_tick"`, `"counter2_tick"`)
	next.Handlers = []string{"counter2.get"}
	next.Timers = []string{"counter2_tick"}
	next.Lifecycle = env.Lifecycle{
		Start: "counter2.start", Stop: "counter2.stop",
		Probe: "counter2.probe", Running: "counter2.running",
		ProtoAddr: ethernet.AllBridges,
	}
	// The guard comes from the old switchlet's declared protocol
	// address; the options carry only the windows.
	u, err := man.Upgrade("Counter", next, UpgradeOptions{
		SuppressFor: netsim.Second, ValidateAfter: 20 * netsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A stray old-protocol frame after the suppression window must roll
	// the node back, even though the caller never named the address.
	r.run(2 * netsim.Second)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, ethernet.DECBridges, 64) })
	r.run(netsim.Second)
	if u.State() != UpgradeRolledBack {
		t.Fatalf("state = %v, want rolled-back (reason %q)", u.State(), u.Reason)
	}
	if !strings.Contains(u.Reason, "old-protocol packet") {
		t.Errorf("reason = %q", u.Reason)
	}
	// The rollback released the guard and drained the new protocol's
	// declared address.
	if _, ok := r.b.dstHandlers[ethernet.DECBridges]; ok {
		t.Error("old-address guard survived the rollback")
	}
	if h := r.b.dstHandlers[ethernet.AllBridges]; h.Name != "fallback-drain" {
		t.Errorf("new protocol address handler = %q, want fallback-drain", h.Name)
	}
}

func TestUpgradeRequiresLifecycles(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	passive := env.Manifest{Name: "Passive", Source: `let x = 1`}
	if _, err := man.Install(passive); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Upgrade("Passive", counterManifest(), UpgradeOptions{}); !errors.Is(err, ErrNotUpgradable) {
		t.Errorf("passive old: err = %v, want ErrNotUpgradable", err)
	}
	if _, err := man.Upgrade("Ghost", counterManifest(), UpgradeOptions{}); !errors.Is(err, ErrNotInstalled) {
		t.Errorf("missing old: err = %v, want ErrNotInstalled", err)
	}
}
