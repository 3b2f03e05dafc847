package bridge_test

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/vm"
)

// reaches reports whether a value of type t can hold a target without
// going through an interface or a func (which a type walk cannot see into).
func reaches(t, target reflect.Type, seen map[reflect.Type]bool) bool {
	if t == target {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reaches(t.Elem(), target, seen)
	case reflect.Map:
		return reaches(t.Key(), target, seen) || reaches(t.Elem(), target, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, target, seen) {
				return true
			}
		}
	}
	return false
}

// TestPerBridgeStateIsSmallAndShared is the guard against per-bridge
// copies of shared code: what a bridge holds must not grow with what other
// bridges loaded. A 256-bridge fabric runs one quickened stream per chunk,
// the one inside the object the process-wide cache hands to every install;
// a copy per bridge multiplies the hot working set by the bridge count,
// which measured a quarter of fabric-serial's host time (BENCH_PR15.json).
func TestPerBridgeStateIsSmallAndShared(t *testing.T) {
	if sz := unsafe.Sizeof(bridge.Bridge{}); sz > 1024 {
		t.Errorf("sizeof(Bridge) = %d bytes, want <= 1024", sz)
	}

	// The only way from a LinkedModule to code is through the shared Obj.
	code := reflect.TypeOf([]vm.Instr(nil))
	lmType := reflect.TypeOf(vm.LinkedModule{})
	for i := 0; i < lmType.NumField(); i++ {
		if f := lmType.Field(i); f.Name != "Obj" && reaches(f.Type, code, map[reflect.Type]bool{}) {
			t.Errorf("LinkedModule.%s can hold a code stream of the module's own", f.Name)
		}
	}

	sim := netsim.New()
	var mods [2]*vm.LinkedModule
	for i := range mods {
		b := bridge.New(sim, "br", byte(i+1), 2, netsim.DefaultCostModel())
		if _, err := b.Manager().Install(switchlets.LearningManifest()); err != nil {
			t.Fatal(err)
		}
		src := netsim.NewNIC(sim, "src", ethernet.MAC{2, 0, 0, 0, byte(i), 1})
		lan := netsim.NewSegment(sim, "lan")
		lan.Attach(src)
		lan.Attach(b.Port(0))
		netsim.NewSegment(sim, "far").Attach(b.Port(1))
		fr := ethernet.Frame{Dst: ethernet.MAC{2, 0, 0, 0, byte(i), 2}, Src: src.MAC, Type: ethernet.TypeTest, Payload: make([]byte, 64)}
		raw, err := fr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 64; n++ {
			src.Send(raw)
		}
		sim.RunAll()
		if b.Stats.FramesSent < 64 || b.Machine.TierEnters[1] == 0 {
			t.Fatalf("bridge %d: sent %d frames, %d quickened frame entries", i, b.Stats.FramesSent, b.Machine.TierEnters[1])
		}
		mods[i], _ = b.Loader.Module(switchlets.ModLearning)
	}
	if mods[0].Obj != mods[1].Obj {
		t.Fatal("two installs of the same manifest link different objects")
	}
	for i, c := range mods[0].Obj.Chunks {
		if unsafe.SliceData(c.Quick) != unsafe.SliceData(mods[1].Obj.Chunks[i].Quick) {
			t.Errorf("chunk %s: the two bridges do not run one quickened stream", c.Name)
		}
	}
}
