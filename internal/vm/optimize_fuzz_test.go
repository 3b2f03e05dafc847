// Differential fuzzing of the optimizing tier: any program the compiler
// accepts must behave bit-identically — results, traps, metered Steps and
// AllocBytes — whether it runs as naive bytecode (-O0) or quickened (-O1).
// This file lives in the external test package so it can seed the corpus
// with the bundled switchlet sources, which compile against a full bridge
// environment.
package vm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/vm"
)

// renderValue stringifies a result deterministically: hash tables render
// in insertion order, functions by shape only (their addresses differ
// across machines by construction).
func renderValue(v vm.Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case int64, bool:
		return fmt.Sprintf("%v", x)
	case string:
		return fmt.Sprintf("%q", x)
	case vm.Unit:
		return "()"
	case *[2]vm.Value:
		return renderTuple(x[:])
	case *[3]vm.Value:
		return renderTuple(x[:])
	case *[4]vm.Value:
		return renderTuple(x[:])
	case *vm.Ref:
		return "ref " + renderValue(x.V)
	case *vm.Hashtbl:
		var sb strings.Builder
		sb.WriteString("{")
		for i, k := range x.Keys {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(renderValue(k))
			sb.WriteString("->")
			sb.WriteString(renderValue(x.M[k]))
		}
		sb.WriteString("}")
		return sb.String()
	case *vm.Closure:
		return fmt.Sprintf("<fun/%d>", x.Chunk.NParams)
	case *vm.Native:
		return "<native " + x.Name + ">"
	default:
		return fmt.Sprintf("<%T>", v)
	}
}

func renderTuple(elems []vm.Value) string {
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = renderValue(e)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// runLevel compiles and executes src one way and returns a transcript of
// everything observable: load outcome, then each exported function invoked
// with canned arguments under generous and then starvation-level fuel.
//
// Levels: 0 = -O0 naive bytecode; 1 = -O1 quickened wire code.
func runLevel(t *testing.T, src string, level int) string {
	t.Helper()
	node := bridge.New(netsim.New(), "fuzz", 1, 2, netsim.DefaultCostModel())
	m := node.Machine
	l := node.Loader
	obj, _, err := vm.CompileLevel("Fz", src, l.SigEnv(), 0)
	if err != nil {
		return "compile error: " + err.Error()
	}
	var sb strings.Builder
	steps0, alloc0 := m.Steps, m.AllocBytes
	l.OptLevel = level
	lm, err := l.Load(obj.Encode())
	fmt.Fprintf(&sb, "load: steps=%d alloc=%d", m.Steps-steps0, m.AllocBytes-alloc0)
	if err != nil {
		fmt.Fprintf(&sb, " err=%v\n", err)
		return sb.String()
	}
	sb.WriteString("\n")

	names := lm.Export.Names()
	sort.Strings(names)
	argPool := []vm.Value{"payload-string", int64(3), int64(0), "x"}
	for _, name := range names {
		v, ok := lm.Global(name)
		if !ok {
			continue
		}
		clo, ok := v.(*vm.Closure)
		if !ok {
			fmt.Fprintf(&sb, "%s = %s\n", name, renderValue(v))
			continue
		}
		args := make([]vm.Value, clo.Chunk.NParams)
		for i := range args {
			args[i] = argPool[i%len(argPool)]
		}
		if len(args) == 1 {
			// Single unit-ish entry points are common; try unit first so
			// start()-style functions actually run.
			args[0] = vm.Unit{}
		}
		for _, fuel := range []uint64{200_000, 73} {
			m.MaxSteps = fuel
			s0, a0 := m.Steps, m.AllocBytes
			res, ierr := m.Invoke(v, args...)
			fmt.Fprintf(&sb, "%s/fuel=%d: steps=%d alloc=%d", name, fuel, m.Steps-s0, m.AllocBytes-a0)
			if ierr != nil {
				fmt.Fprintf(&sb, " trap=%v\n", ierr)
			} else {
				fmt.Fprintf(&sb, " val=%s\n", renderValue(res))
			}
		}
	}
	return sb.String()
}

// FuzzOptimizedMatchesBaseline is the optimizer's differential oracle. It
// is seeded with the bundled switchlet corpus — the exact programs the
// bridge ships — plus targeted programs covering every superinstruction,
// and requires -O0 and -O1 to produce identical transcripts.
func FuzzOptimizedMatchesBaseline(f *testing.F) {
	for _, seed := range []string{
		switchlets.DumbSrc,
		switchlets.LearningSrc,
		switchlets.SpanningSrc,
		switchlets.DECSrc,
		switchlets.ControlSrc,
		switchlets.BuggySpanningSrc,
		// Shapes beyond what the switchlets use. The constant expression
		// and the for loop pin unfused arithmetic and q.inc_local /
		// q.gg_cmp_jf against -O0.
		`let f x = x + 2 * 3`,
		`let f a b = if a < b then (a, b) else (b, a)`,
		`let f n =
  let acc = Safestd.ref 0 in
  for i = 0 to n do acc := !acc + i done;
  !acc`,
		`let t = Hashtbl.create 4
let put k = Hashtbl.add t k (String.length k); ()
let get k = (Hashtbl.find t k) + (if Hashtbl.mem t k then 1 else 0)`,
		`let f s = (String.sub s 1 2) ^ (Safestd.string_of_int (String.get s 0))`,
		`let f a = a / 0`,
		`let f () = String.sub "abcdef" (lsl 1 62) (lsl 1 62)`,
		`let (x, y) = (1, "two")
let f () = (y, x)`,
		// Equality and ordering on 3- and 4-tuples, fused into
		// compare-and-branch and not.
		`let f a i j d =
  let t = (i, d, a) in
  let q = (j, i, d, a) in
  let lo = if t < (i, a, d) then t else (j, a, d) in
  (t = (i, d, a), q >= (i, j, a, d), q <> (j, i, d, a), (lo, q))`,
		// q.concat_n. Four-parameter functions get the string arguments
		// "payload-string" and "x" first and last; the 40-operand chain's
		// concats run at steps 41 to 79, so the fuel=73 run starves inside
		// the fused op; the 300-concat run splits at 255.
		`let f a i j d = a ^ d ^ a`,
		`let f a i j d = d ^ a ^ "|" ^ d ^ a ^ "|"`,
		`let be16 v = String.make 1 (land (lsr v 8) 255) ^ String.make 1 (land v 255)
let f a i j d = a ^ d ^ be16 i`,
		"let f a i j d = a" + strings.Repeat(" ^ d", 39),
		"let f a i j d = d" + strings.Repeat(" ^ d", 300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8192 {
			t.Skip("oversized input")
		}
		base := runLevel(t, src, 0)
		if got := runLevel(t, src, 1); got != base {
			t.Errorf("-O1 diverges from -O0\n--- -O0:\n%s\n--- -O1:\n%s", base, got)
		}
	})
}

// TestEveryQuickOpFiresInABundledSwitchlet keeps the superinstruction
// table honest: an entry none of the bundled switchlets makes the optimizer
// emit is dead weight in the interpreter, the verifier and the
// disassembler, and must be deleted rather than carried.
func TestEveryQuickOpFiresInABundledSwitchlet(t *testing.T) {
	node := bridge.New(netsim.New(), "table", 1, 2, netsim.DefaultCostModel())
	emitted := map[string]bool{}
	for _, m := range switchlets.Builtins() {
		obj, _, err := vm.CompileLevel(m.Name, m.Source, node.Loader.SigEnv(), 1)
		if err != nil {
			t.Fatalf("compile %s: %v", m.Name, err)
		}
		for _, c := range obj.Chunks {
			for _, ins := range c.Quick {
				emitted[vm.QuickOpName(ins.Op)] = true
			}
		}
	}
	for i, n := range vm.QuickOpNames {
		if n == "" {
			t.Errorf("superinstruction table entry %d has no name", i)
		} else if !emitted[n] {
			t.Errorf("%s is emitted by no bundled switchlet", n)
		}
	}
}
