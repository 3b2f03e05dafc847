package bridge

import (
	"fmt"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
)

// TestInstrumentedFrameDispatchAllocBudget pins the metrics plane's
// hot-path contract: attaching a full registry to a bridge adds zero
// allocations per forwarded frame. Every bridge instrument is a
// quiescent-point sampler, so the frame path is bit-for-bit the
// uninstrumented one; only the publish (once per Run, not per frame)
// may allocate, and only O(installed switchlets) for the dynamic
// version inventory.
func TestInstrumentedFrameDispatchAllocBudget(t *testing.T) {
	r := newRig(t)
	r.load(t, "Fwd", forwardSwitchlet)
	reg := metrics.NewRegistry("rig")
	r.b.Instrument(reg, metrics.Labels{{Name: "bridge", Value: "br"}})
	r.sim.OnQuiesce(reg.Publish)

	fr := ethernet.Frame{Dst: r.n2.MAC, Src: r.n1.MAC, Type: ethernet.TypeTest, Payload: make([]byte, 1024)}
	raw, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	cycle := func() {
		for i := 0; i < frames; i++ {
			r.n1.Send(raw)
		}
		r.sim.RunAll()
	}
	cycle() // warm pools, arena, heap slab, publish scratch
	allocs := testing.AllocsPerRun(50, cycle)
	// Budget: the uninstrumented path's 2 allocs/frame (see
	// TestFrameDispatchAllocBudget) plus a flat 16 for the one publish
	// the RunAll quiescent point triggers.
	if allocs > frames*2+16 {
		t.Fatalf("instrumented steady state allocs = %v per %d frames + 1 publish, want <= %d",
			allocs, frames, frames*2+16)
	}
	if r.rx2 == 0 {
		t.Fatal("no frames forwarded")
	}
	snap := reg.Snapshot()
	if v, _ := snap.Get("ab_bridge_frames_in_total", `{bridge="br"}`); v == 0 {
		t.Error("instrumented counter never published")
	}
}

// TestInstrumentMirrorsStatsAndManager verifies the instrument set
// against the bridge's own counters after real traffic and a lifecycle
// operation.
func TestInstrumentMirrorsStatsAndManager(t *testing.T) {
	r := newRig(t)
	r.load(t, "Fwd", forwardSwitchlet)
	if _, err := r.b.Manager().Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry("rig")
	r.b.Instrument(reg, metrics.Labels{{Name: "bridge", Value: "br"}})
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 256) })
	r.run(50 * netsim.Millisecond)
	reg.Publish()
	snap := reg.Snapshot()

	check := func(name string, want float64) {
		t.Helper()
		if v, ok := snap.Get(name, `{bridge="br"}`); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
	check("ab_bridge_frames_in_total", float64(r.b.Stats.FramesIn))
	check("ab_bridge_frames_sent_total", float64(r.b.Stats.FramesSent))
	check("ab_bridge_vm_time_ns_total", float64(r.b.Stats.VMTime))
	// Fwd loaded through the pre-manifest shim; only the managed
	// Counter install counts.
	check("ab_bridge_switchlet_installs_total", 1)

	// Tier residency: one series per execution tier, mirroring the
	// machine's entry counters, and some tier saw the traffic.
	var tierTotal, machineTotal float64
	for tier := range r.b.Machine.TierEnters {
		v, ok := snap.Get("ab_bridge_vm_tier_enters_total",
			fmt.Sprintf(`{bridge="br",tier="%d"}`, tier))
		if !ok {
			t.Errorf("ab_bridge_vm_tier_enters_total missing tier %d", tier)
		}
		tierTotal += v
		machineTotal += float64(r.b.Machine.TierEnters[tier])
	}
	if tierTotal != machineTotal || tierTotal == 0 {
		t.Errorf("tier enters published %v, machine counted %v (want equal, nonzero)", tierTotal, machineTotal)
	}

	// The version inventory lists the managed install.
	found := false
	for _, p := range snap.Series {
		if p.Name == "ab_bridge_switchlet_info" && strings.Contains(p.Labels, `module="Counter"`) &&
			strings.Contains(p.Labels, `version="1.0.0"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("ab_bridge_switchlet_info missing Counter@1.0.0")
	}

	util, ok := snap.Get("ab_bridge_cpu_utilization", `{bridge="br"}`)
	if !ok || util < 0 || util > 1 {
		t.Errorf("cpu utilization = %v (ok=%v), want within [0,1]", util, ok)
	}

	// The run queue drained with the run, and holds a burst while it
	// waits for the CPU.
	check("ab_bridge_cpu_runq_depth", 0)
	r.sim.Schedule(r.sim.Now()+1, func() {
		for i := 0; i < 5; i++ {
			r.sendFrom1(t, r.n2.MAC, 256)
		}
	})
	r.run(300 * netsim.Microsecond)
	reg.Publish()
	snap = reg.Snapshot()
	if got := r.b.CPU().Backlog(); got < 2 {
		t.Fatalf("CPU backlog mid-burst = %d, want the burst queued", got)
	}
	check("ab_bridge_cpu_runq_depth", float64(r.b.CPU().Backlog()))
}

// TestManagerLifecycleCounters pins the Manager's operation accounting
// through an install → upgrade → rollback → uninstall sequence.
func TestManagerLifecycleCounters(t *testing.T) {
	r := newRig(t)
	man := r.b.Manager()
	if _, err := man.Install(counterManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := man.Query("counter.start", ""); err != nil {
		t.Fatal(err)
	}
	if got := man.Lifecycle(); got.Installs != 1 || got.Upgrades != 0 {
		t.Fatalf("after install: %+v", got)
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
	if got := man.Lifecycle(); got.Installs != 2 || got.Upgrades != 1 || got.Commits != 0 {
		t.Fatalf("after handoff: %+v", got)
	}
	r.run(3 * netsim.Second)
	if got := man.Lifecycle(); got.Commits != 1 || got.Rollbacks != 0 {
		t.Fatalf("after validation: %+v", got)
	}
	if err := u.Rollback("operator undo"); err != nil {
		t.Fatal(err)
	}
	if got := man.Lifecycle(); got.Rollbacks != 1 {
		t.Fatalf("after rollback: %+v", got)
	}
	if err := man.Uninstall("Counter2"); err != nil {
		t.Fatal(err)
	}
	if got := man.Lifecycle(); got.Uninstalls != 1 {
		t.Fatalf("after uninstall: %+v", got)
	}
}
