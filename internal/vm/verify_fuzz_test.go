// Soundness fuzzing of the load-time verifier: any byte string the decoder
// and verifier both accept must execute without structural traps — the
// interpreter's defensive checks (stack underflow, wild jumps, capture
// escapes, mispredicted specializations) exist as a second line of defense,
// and the verifier's contract is that verified code never reaches them.
// Like the optimizer fuzz, this lives in the external package so it can
// seed from the bundled switchlets.
package vm_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/vm"
)

// structuralTraps are interpreter fault strings that indicate the VM hit a
// defensive check a verified object must never trigger. Resource traps
// (fuel exhausted, division by zero, user raise) are legitimate runtime
// outcomes and are NOT in this list.
var structuralTraps = []string{
	"operand stack underflow",
	"fell off end of chunk",
	"bad opcode",
	"capture index out of range",
	"refers past frame locals",
	"refers past closure environment",
	"specialized call mispredicted",
	"fused concat with no deopt map",
}

// runWire loads already-encoded object bytes at the given loader opt level
// and returns the same transcript shape as runLevel: load outcome, then
// every exported function invoked under generous and starvation fuel.
func runWire(t *testing.T, enc []byte, optLevel int) string {
	t.Helper()
	node := bridge.New(netsim.New(), "vfz", 1, 2, netsim.DefaultCostModel())
	m := node.Machine
	l := node.Loader
	l.OptLevel = optLevel

	var sb strings.Builder
	steps0, alloc0 := m.Steps, m.AllocBytes
	lm, err := l.Load(enc)
	sb.WriteString("load:")
	if err != nil {
		sb.WriteString(" err=" + err.Error() + "\n")
		return sb.String()
	}
	sb.WriteString("\n")
	_ = steps0
	_ = alloc0

	names := lm.Export.Names()
	argPool := []vm.Value{"payload-string", int64(3), int64(0), "x"}
	for _, name := range names {
		v, ok := lm.Global(name)
		if !ok {
			continue
		}
		clo, ok := v.(*vm.Closure)
		if !ok {
			sb.WriteString(name + " = " + renderValue(v) + "\n")
			continue
		}
		args := make([]vm.Value, clo.Chunk.NParams)
		for i := range args {
			args[i] = argPool[i%len(argPool)]
		}
		if len(args) == 1 {
			args[0] = vm.Unit{}
		}
		for _, fuel := range []uint64{200_000, 73} {
			m.MaxSteps = fuel
			res, ierr := m.Invoke(v, args...)
			if ierr != nil {
				sb.WriteString(name + ": trap=" + ierr.Error() + "\n")
			} else {
				sb.WriteString(name + ": val=" + renderValue(res) + "\n")
			}
		}
	}
	return sb.String()
}

// encodedSeeds compiles every bundled switchlet at -O0 and returns the wire
// bytes the bridge would transmit.
func encodedSeeds(tb testing.TB) [][]byte {
	node := bridge.New(netsim.New(), "seed", 1, 2, netsim.DefaultCostModel())
	var out [][]byte
	for name, src := range map[string]string{
		"Dumb":     switchlets.DumbSrc,
		"Learning": switchlets.LearningSrc,
		"Spanning": switchlets.SpanningSrc,
		"DEC":      switchlets.DECSrc,
		"Control":  switchlets.ControlSrc,
		"SpanBug":  switchlets.BuggySpanningSrc,
	} {
		obj, _, err := vm.CompileLevel(name, src, node.Loader.SigEnv(), 0)
		if err != nil {
			tb.Fatalf("compile %s: %v", name, err)
		}
		out = append(out, obj.Encode())
	}
	return out
}

// FuzzVerifierSoundness mutates encoded switchlet objects and holds the
// verifier to its contract: every rejection is a typed *vm.VerifyError,
// and every acceptance executes at -O0 and -O1 with identical
// transcripts and no structural trap.
func FuzzVerifierSoundness(f *testing.F) {
	for _, enc := range encodedSeeds(f) {
		f.Add(enc)
		// Byte-flip mutants of the header and mid-stream code get the
		// corpus past "decode fails immediately" from the first run.
		for _, i := range []int{0, len(enc) / 3, len(enc) / 2, len(enc) - 1} {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		if len(enc) > 1<<16 {
			t.Skip("oversized input")
		}
		obj, err := vm.DecodeObject(enc)
		if err != nil {
			return // malformed wire data is the decoder's problem, not ours
		}
		if _, verr := vm.VerifyObject(obj); verr != nil {
			var typed *vm.VerifyError
			if !errors.As(verr, &typed) {
				t.Fatalf("verifier rejection is not a *vm.VerifyError: %v (%T)", verr, verr)
			}
			return
		}
		// Verifier accepted: the object must run clean both naive and
		// quickened, and identically.
		base := runWire(t, enc, 0)
		quick := runWire(t, enc, 1)
		if base != quick {
			t.Errorf("-O1 diverges from -O0 on verified object\n--- -O0:\n%s\n--- -O1:\n%s", base, quick)
		}
		for _, trap := range structuralTraps {
			if strings.Contains(base, trap) || strings.Contains(quick, trap) {
				t.Errorf("verified object hit structural trap %q\n--- -O0:\n%s\n--- -O1:\n%s", trap, base, quick)
			}
		}
	})
}

// hasQuick reports whether any chunk carries a quickened stream.
func hasQuick(o *vm.Object) bool {
	for _, c := range o.Chunks {
		if c.Quick != nil {
			return true
		}
	}
	return false
}

// TestBundledSwitchletsVerifyClean is the shipping gate: every bundled
// switchlet must pass the full static check in both forms the loader sees —
// fresh wire decode and quickened.
func TestBundledSwitchletsVerifyClean(t *testing.T) {
	node := bridge.New(netsim.New(), "clean", 1, 2, netsim.DefaultCostModel())
	for name, src := range map[string]string{
		"Dumb":     switchlets.DumbSrc,
		"Learning": switchlets.LearningSrc,
		"Spanning": switchlets.SpanningSrc,
		"DEC":      switchlets.DECSrc,
		"Control":  switchlets.ControlSrc,
		"SpanBug":  switchlets.BuggySpanningSrc,
	} {
		t.Run(name, func(t *testing.T) {
			obj, _, err := vm.CompileLevel(name, src, node.Loader.SigEnv(), 0)
			if err != nil {
				t.Fatal(err)
			}
			enc := obj.Encode()

			wire, err := vm.DecodeObject(enc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.VerifyObject(wire); err != nil {
				t.Fatalf("wire form rejected: %v", err)
			}

			quick, _ := vm.DecodeObject(enc)
			vm.OptimizeObject(quick, false)
			info, err := vm.VerifyObject(quick)
			if err != nil {
				t.Fatalf("quickened form rejected: %v", err)
			}
			if hasQuick(quick) && !info.QuickChecked {
				t.Error("quick stream present but not checked")
			}
		})
	}
}
