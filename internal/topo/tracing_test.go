package topo

import (
	"runtime"
	"testing"
	"time"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
)

// probe is a pointer-free sentinel. A finalizer on an object inside a
// reference cycle never runs, and a net and its tracer are both full of
// cycles, so each is watched through a probe only it holds: the probe is
// collected exactly when its holder is.
type probe struct{ _ [64]byte }

func (*probe) quiesce()        {}
func (*probe) Observe(float64) {}

// TestTracingHubHoldsOneTracerPerNet builds the same traced net five
// times. The default hub must hold one tracer for it, the last, and the
// first four builds — their simulations and their tracers — must be
// collectable once nothing else refers to them.
func TestTracingHubHoldsOneTracerPerNet(t *testing.T) {
	const builds = 5
	const name = "hub-retention"
	before := len(tracing.DefaultHub.Tracers())
	type freed struct {
		build  int
		tracer bool
	}
	done := make(chan freed, 2*builds)
	for i := 0; i < builds; i++ {
		g, h1, h2, _ := twoLAN(LearningBridge)
		g.Name = name
		net := g.MustBuild(netsim.DefaultCostModel())
		tr := net.EnableTracing(tracing.Config{SampleProb: 1})
		simProbe, trProbe := new(probe), new(probe)
		net.Sim.OnQuiesce(simProbe.quiesce)
		tr.SetVMHist(trProbe)
		i := i
		runtime.SetFinalizer(simProbe, func(*probe) { done <- freed{i, false} })
		runtime.SetFinalizer(trProbe, func(*probe) { done <- freed{i, true} })
		net.Warm(h1, h2)
		if len(tr.Transcript()) == 0 {
			t.Fatalf("build %d recorded nothing", i)
		}
	}

	if n := len(tracing.DefaultHub.Tracers()); n != before+1 {
		t.Fatalf("hub holds %d tracers after %d builds of one net, want %d", n, builds, before+1)
	}
	// Only the hub holds the last tracer now; let go of it at the end.
	defer func() {
		trs := tracing.DefaultHub.Tracers()
		tracing.DefaultHub.Detach(trs[len(trs)-1])
	}()

	got := map[freed]bool{}
	missing := func() []freed {
		var m []freed
		for i := 0; i < builds-1; i++ {
			for _, tracer := range []bool{false, true} {
				if !got[freed{i, tracer}] {
					m = append(m, freed{i, tracer})
				}
			}
		}
		return m
	}
	for deadline := time.Now().Add(5 * time.Second); len(missing()) > 0 && time.Now().Before(deadline); {
		runtime.GC()
		select {
		case f := <-done:
			got[f] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if m := missing(); len(m) > 0 {
		t.Errorf("never collected (build, tracer rather than simulation): %v", m)
	}
	if got[freed{builds - 1, true}] {
		t.Errorf("the attached tracer of build %d was collected", builds-1)
	}
}
