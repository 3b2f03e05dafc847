package vm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// outcome captures everything observable about one invocation: the result
// (or trap), and the metered execution that drives virtual time.
type outcome struct {
	val   string
	err   string
	steps uint64
	alloc uint64
}

// loadLevel compiles src and loads its wire bytes through a loader at the
// given optimization level: 0 naive bytecode, 1 quickened.
func loadLevel(t *testing.T, m *Machine, level int, src string) *LinkedModule {
	t.Helper()
	l := StdLoader(m)
	l.OptLevel = level
	obj, _, err := CompileLevel("P", src, l.SigEnv(), 0)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	lm, err := l.Load(obj.Encode())
	if err != nil {
		t.Fatalf("load (-O%d): %v", level, err)
	}
	return lm
}

// runPath loads src at level and invokes fn with args under maxSteps fuel.
func runPath(t *testing.T, level int, src, fn string, maxSteps uint64, args ...Value) outcome {
	t.Helper()
	m := NewMachine()
	lm := loadLevel(t, m, level, src)
	// maxSteps constrains only the invocation under test, not module init.
	m.MaxSteps = maxSteps
	f, ok := lm.Global(fn)
	if !ok {
		t.Fatalf("no export %s", fn)
	}
	steps0, alloc0 := m.Steps, m.AllocBytes
	v, verr := m.Invoke(f, args...)
	o := outcome{val: fmt.Sprintf("%#v", v), steps: m.Steps - steps0, alloc: m.AllocBytes - alloc0}
	if verr != nil {
		o.err = verr.Error()
	}
	return o
}

// assertParity runs fn at -O0 and -O1 and requires bit-identical
// outcomes: same value or same trap, same Steps, same AllocBytes — the
// virtual-time contract of the optimizer.
func assertParity(t *testing.T, src, fn string, maxSteps uint64, args ...Value) outcome {
	t.Helper()
	naive := runPath(t, 0, src, fn, maxSteps, args...)
	if got := runPath(t, 1, src, fn, maxSteps, args...); !reflect.DeepEqual(naive, got) {
		t.Errorf("%s(%v) diverges at -O1:\n  -O0: %+v\n  got: %+v", fn, args, naive, got)
	}
	return naive
}

// quickOps returns the set of quickened opcode names the optimizer emits
// for src, so each test can prove the fast path it exercises was actually
// emitted.
func quickOps(t *testing.T, src string) map[string]bool {
	t.Helper()
	l := StdLoader(NewMachine())
	obj, _, err := CompileLevel("P", src, l.SigEnv(), 1)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ops := map[string]bool{}
	for _, c := range obj.Chunks {
		for _, ins := range c.Quick {
			if n := QuickOpName(ins.Op); n != "" {
				ops[n] = true
			}
		}
	}
	return ops
}

func requireOps(t *testing.T, src string, names ...string) {
	t.Helper()
	ops := quickOps(t, src)
	for _, n := range names {
		if !ops[n] {
			t.Fatalf("expected %s in quickened code, have %v", n, ops)
		}
	}
}

const bigFuel = 1 << 20

func TestQConstFolding(t *testing.T) {
	// Constant subexpressions are not folded: 2 * 3 runs as wire
	// arithmetic inside the quickened stream at every level.
	src := `let f x = x + 2 * 3`
	o := assertParity(t, src, "f", bigFuel, int64(7))
	if o.val != "13" {
		t.Errorf("f 7 = %s", o.val)
	}
}

func TestQConst2Pairs(t *testing.T) {
	// Two constant pushes in a row (call arguments) stay two wire pushes.
	src := `
let g a b = a - b
let f () = g 1000000 70000
`
	if o := assertParity(t, src, "f", bigFuel, Unit{}); o.val != "930000" {
		t.Errorf("f() = %s", o.val)
	}
}

func TestQNopDeadStore(t *testing.T) {
	// A store nobody reads is kept: the push/set pair runs unfused.
	src := `
let f x =
  let unused = 12345 in
  x + 1
`
	if o := assertParity(t, src, "f", bigFuel, int64(41)); o.val != "42" {
		t.Errorf("f 41 = %s", o.val)
	}
}

func TestQGetGet(t *testing.T) {
	src := `let f a b = a * b`
	requireOps(t, src, "q.get_get")
	assertParity(t, src, "f", bigFuel, int64(6), int64(7))
	// Type-mismatch trap through the fused push pair.
	assertParity(t, src, "f", bigFuel, "six", int64(7))
}

func TestQCmpJf(t *testing.T) {
	src := `let f a = if a >= 10 then "big" else "small"`
	requireOps(t, src, "q.cmp_jf")
	assertParity(t, src, "f", bigFuel, int64(10))
	assertParity(t, src, "f", bigFuel, int64(9))
	// Comparing a function value traps identically fused and unfused.
	src2 := `
let f a = if a = a then 1 else 0
`
	assertParity(t, src2, "f", bigFuel, int64(3))
}

func TestQGGCmpJf(t *testing.T) {
	src := `let f a b = if a < b then a else b`
	requireOps(t, src, "q.gg_cmp_jf")
	assertParity(t, src, "f", bigFuel, int64(3), int64(9))
	assertParity(t, src, "f", bigFuel, int64(9), int64(3))
	assertParity(t, src, "f", bigFuel, "a", "b") // string compare, both arms
}

func TestQIncLocalAndLoops(t *testing.T) {
	// A for loop over a ref: the head fuses to q.gg_cmp_jf and the counter
	// increment to q.inc_local.
	src := `
let f n =
  let acc = Safestd.ref 0 in
  for i = 0 to n do
    acc := !acc + i
  done;
  !acc
`
	requireOps(t, src, "q.gg_cmp_jf", "q.inc_local")
	o := assertParity(t, src, "f", bigFuel, int64(100))
	if o.val != "5050" {
		t.Errorf("f 100 = %s", o.val)
	}
	assertParity(t, src, "f", bigFuel, int64(0))
	assertParity(t, src, "f", bigFuel, int64(-1)) // empty loop
}

func TestUntaggedLoopOverflowWraps(t *testing.T) {
	// Arithmetic in a fused loop must wrap exactly like -O0's int64 addition.
	src := `
let f start =
  let acc = Safestd.ref start in
  for i = 0 to 2 do
    acc := !acc + 9223372036854775807
  done;
  !acc
`
	o := assertParity(t, src, "f", bigFuel, int64(5))
	if !strings.Contains(o.val, "2") && o.err == "" {
		t.Logf("wrapped to %s", o.val)
	}
}

func TestLoopFuelStarvationDeopt(t *testing.T) {
	// Run a loop under successively tighter fuel so the starvation point
	// falls on every position inside the fused loop head/increment at
	// least once; the fuel trap must report identical Steps at all levels.
	src := `
let f n =
  let acc = Safestd.ref 0 in
  for i = 0 to n do
    acc := !acc + i
  done;
  !acc
`
	for fuel := uint64(1); fuel < 120; fuel++ {
		o := assertParity(t, src, "f", fuel, int64(1000))
		if o.err == "" {
			t.Fatalf("fuel %d unexpectedly sufficient", fuel)
		}
		if o.steps != fuel {
			t.Fatalf("fuel %d: consumed %d steps", fuel, o.steps)
		}
	}
}

func TestQGetFieldSet(t *testing.T) {
	src := `
let f p =
  let (x, y) = p in
  x * 100 + y
`
	requireOps(t, src, "q.get_field_set")
	o := assertParity(t, src, "f", bigFuel, &[2]Value{int64(4), int64(2)})
	if o.val != "402" {
		t.Errorf("f (4,2) = %s", o.val)
	}
	// A non-tuple argument traps the same way fused and unfused.
	assertParity(t, src, "f", bigFuel, int64(9))
}

func TestQStrSub(t *testing.T) {
	src := `let f s a b = (String.sub s a b) ^ "!"`
	requireOps(t, src, "q.str_sub")
	o := assertParity(t, src, "f", bigFuel, "hello world", int64(6), int64(5))
	if o.val != `"world!"` {
		t.Errorf("f = %s", o.val)
	}
	assertParity(t, src, "f", bigFuel, "", int64(0), int64(0))    // empty result IC edge
	assertParity(t, src, "f", bigFuel, "abc", int64(2), int64(5)) // out of bounds trap
	assertParity(t, src, "f", bigFuel, "abc", int64(-1), int64(1))
	assertParity(t, src, "f", bigFuel, int64(0), int64(0), int64(0)) // type trap
}

func TestQStrGet(t *testing.T) {
	src := `let f s i = (String.get s i) + 0`
	requireOps(t, src, "q.str_get")
	o := assertParity(t, src, "f", bigFuel, "AZ", int64(1))
	if o.val != "90" {
		t.Errorf("f \"AZ\" 1 = %s", o.val)
	}
	assertParity(t, src, "f", bigFuel, "AZ", int64(2)) // index trap
	assertParity(t, src, "f", bigFuel, "", int64(0))   // empty string trap
	assertParity(t, src, "f", bigFuel, "AZ", "1")      // type trap
}

func TestQHtblOps(t *testing.T) {
	// The adds are sequenced (non-tail) so the call sites fuse; a call in
	// tail position compiles to tail_call, which never specializes.
	src := `
let t = Hashtbl.create 8
let put k v = Hashtbl.add t k v; ()
let get k = (Hashtbl.find t k, Hashtbl.mem t k)
`
	requireOps(t, src, "q.htbl_add", "q.htbl_find", "q.htbl_mem")
	// Parity has to hold across a stateful sequence, so drive each path's
	// own module through the same script rather than one call at a time.
	script := func(lvl int) []outcome {
		var res []outcome
		m := NewMachine()
		m.MaxSteps = bigFuel
		lm := loadLevel(t, m, lvl, src)
		call := func(fn string, args ...Value) {
			f, _ := lm.Global(fn)
			steps0, alloc0 := m.Steps, m.AllocBytes
			v, verr := m.Invoke(f, args...)
			o := outcome{val: fmt.Sprintf("%#v", v), steps: m.Steps - steps0, alloc: m.AllocBytes - alloc0}
			if verr != nil {
				o.err = verr.Error()
			}
			res = append(res, o)
		}
		call("get", "missing") // Not_found trap
		call("put", "a", int64(1))
		call("get", "a")
		call("get", "a")           // the same lookup twice
		call("put", "a", int64(2)) // overwrite
		call("get", "a")           // must observe the new value
		call("get", int64(7))      // int key, miss
		call("put", int64(7), int64(8))
		call("get", int64(7))
		return res
	}
	want := script(0)
	if got := script(1); !reflect.DeepEqual(want, got) {
		t.Errorf("hashtable script diverges at -O1:\n  -O0: %+v\n  got: %+v", want, got)
	}
}

// TestSpecializedCallMispredictDeopts rebinds an import slot after linking
// so a q.str_get site's callee check fails; the site must fall back to the
// generic wire call of whatever is bound — here a plain closure — instead
// of trapping or running the stale fast path.
func TestSpecializedCallMispredictDeopts(t *testing.T) {
	src := `let f s i = (String.get s i) + 0`
	l := StdLoader(NewMachine())
	obj, _, err := CompileLevel("P", src, l.SigEnv(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := l.LoadObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Find the flattened import slot bound to String.get.
	slot := -1
	i := 0
	for _, ref := range lm.Obj.Imports {
		for _, n := range ref.Names {
			if ref.Module == "String" && n == "get" {
				slot = i
			}
			i++
		}
	}
	if slot < 0 {
		t.Fatal("no String.get import")
	}
	lm.Imports[slot] = &Native{Name: "fake_get", Arity: 2, Fn: func(_ *Ctx, _ []Value) (Value, error) {
		return int64(4242), nil
	}}
	f, _ := lm.Global("f")
	v, err := l.Machine().Invoke(f, "xyz", int64(0))
	if err != nil {
		t.Fatalf("mispredicted call trapped: %v", err)
	}
	if v != int64(4242) {
		t.Errorf("mispredicted call = %v, want the rebound native's 4242", v)
	}
}

// TestInlinedNativeParity pins the contract claimed in builtins.go: the
// interpreter-inlined fast paths of the tagged natives replicate the Go
// implementations' results AND their AllocBytes metering exactly, on
// String.sub inline-cache hits and misses alike.
func TestInlinedNativeParity(t *testing.T) {
	src := `
let t = Hashtbl.create 4
let _ = Hashtbl.add t "k" "value"
let sub s = (String.sub s 1 3) ^ ""
let get s = (String.get s 0) * 1
let find () = (Hashtbl.find t "k") ^ ""
let mem k = if Hashtbl.mem t k then 1 else 0
let add k = Hashtbl.add t k "nine"; ()
let huge s = (String.sub s (lsl 1 62) (lsl 1 62)) ^ ""
`
	requireOps(t, src, "q.str_sub", "q.str_get", "q.htbl_find", "q.htbl_mem", "q.htbl_add")
	for _, c := range []struct {
		fn   string
		args []Value
	}{
		{"sub", []Value{"abcdef"}},
		{"get", []Value{"abcdef"}},
		{"find", []Value{Unit{}}},
		{"mem", []Value{"k"}},
		{"mem", []Value{"nope"}},
		{"add", []Value{"fresh"}},
	} {
		assertParity(t, src, c.fn, bigFuel, c.args...)
	}
	// pos+n overflows int64: a trap at both levels, never a Go panic.
	if o := assertParity(t, src, "huge", bigFuel, "abcdef"); o.err != "trap: String.sub: out of bounds" {
		t.Errorf("huge: err = %q, want the String.sub bounds trap", o.err)
	}
}

// TestOptimizeStepWeightsCoverWire asserts the fundamental bookkeeping
// invariant behind virtual-time identity: in every quickened chunk the
// step weights sum to the wire instruction count, and every quickened pc
// maps to a valid wire pc.
func TestOptimizeStepWeightsCoverWire(t *testing.T) {
	for _, src := range []string{
		disasmSrc,
		`let f a b = if a < b then (a, b) else (b, a)`,
		`let f n = let acc = Safestd.ref 1 in
  for i = 1 to n do acc := !acc * i done; !acc`,
	} {
		l := StdLoader(NewMachine())
		obj, _, err := CompileLevel("W", src, l.SigEnv(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range obj.Chunks {
			if c.Quick == nil {
				continue
			}
			sum := 0
			for pc, ins := range c.Quick {
				w := int(ins.W)
				if w == 0 {
					w = 1
				}
				sum += w
				if pc >= len(c.quickSrc) || int(c.quickSrc[pc]) >= len(c.Code) {
					t.Fatalf("%s: quick pc %d has no wire mapping", c.Name, pc)
				}
			}
			if sum != len(c.Code) {
				t.Errorf("%s: quick weights sum to %d, wire has %d instructions", c.Name, sum, len(c.Code))
			}
		}
	}
}

func TestDivModByZeroParity(t *testing.T) {
	src := `
let f a b = a / b + a mod b
`
	assertParity(t, src, "f", bigFuel, int64(7), int64(2))
	assertParity(t, src, "f", bigFuel, int64(7), int64(0))
	assertParity(t, src, "f", bigFuel, int64(-9223372036854775808), int64(-1)) // Go-wrapping edge
}

// deoptLog records the reasons a machine's frames leave the quickened
// stream.
type deoptLog []string

func (d *deoptLog) TraceDeopt(reason string) { *d = append(*d, reason) }

func TestQConcatN(t *testing.T) {
	// The shapes of the spanning tree's vectors and BPDUs: chains of
	// three and six operands, and one ending in a call result.
	src := `
let be16 v = String.make 1 (land (lsr v 8) 255) ^ String.make 1 (land v 255)
let three a b c = a ^ b ^ c
let six a b = a ^ "<" ^ b ^ ">" ^ a ^ b
let vec a p = a ^ "|" ^ be16 p
`
	requireOps(t, src, "q.concat_n")
	if o := assertParity(t, src, "three", bigFuel, "ab", "", "cde"); o.val != `"abcde"` {
		t.Errorf("three = %s", o.val)
	}
	if o := assertParity(t, src, "six", bigFuel, "x", "yz"); o.val != `"x<yz>xyz"` {
		t.Errorf("six = %s", o.val)
	}
	if o := assertParity(t, src, "vec", bigFuel, "id", int64(0x4142)); o.val != `"id|AB"` {
		t.Errorf("vec = %s", o.val)
	}
	assertParity(t, src, "three", bigFuel, "", "", "")
	// Fuel running out anywhere in or around the fused chain.
	for fuel := uint64(1); fuel < 16; fuel++ {
		assertParity(t, src, "six", fuel, "x", "yz")
	}
}

// TestQConcatNTypeDeopt passes an int where the chain expects a string.
// Parameters stay at top in the verifier, so the fused op meets the int at
// run time; it must replay the wire concats and trap at the same concat
// with -O0's message, Steps and AllocBytes, whichever operand is wrong.
func TestQConcatNTypeDeopt(t *testing.T) {
	src := `let three a b c = a ^ b ^ c`
	for pos := 0; pos < 3; pos++ {
		args := []Value{"a", "bb", "ccc"}
		args[pos] = int64(7)
		o := assertParity(t, src, "three", bigFuel, args...)
		if o.err != "trap: concatenation of non-strings" {
			t.Errorf("int operand %d: err = %q", pos, o.err)
		}
	}

	m := NewMachine()
	var log deoptLog
	m.Trace = &log
	lm := loadLevel(t, m, 1, src)
	f, _ := lm.Global("three")
	if _, err := m.Invoke(f, "a", "bb", "ccc"); err != nil || len(log) != 0 {
		t.Fatalf("string operands: err = %v, deopts = %v", err, log)
	}
	if _, err := m.Invoke(f, "a", int64(7), "ccc"); err == nil || !reflect.DeepEqual([]string(log), []string{"concat-type"}) {
		t.Errorf("int operand: err = %v, deopts = %v, want one concat-type", err, log)
	}
}

// TestQConcatNUnderflowDeopt hand-builds a quickened stream that an
// unverified object could carry: a two-concat run over a one-value stack.
// The fused op must replay the wire code, whose concat pops nothing and
// traps, rather than read below the frame.
func TestQConcatNUnderflowDeopt(t *testing.T) {
	wire := []Instr{{Op: opConstUnit}, {Op: opConcat}, {Op: opConcat}, {Op: opReturn}}
	quick := []Instr{{Op: opConstUnit}, {Op: qConcatN, W: 2, A: 2}, {Op: opReturn}}
	run := func(c *Chunk) (string, uint64) {
		m := NewMachine()
		clo := &Closure{Mod: &LinkedModule{Obj: &Object{Chunks: []*Chunk{c}}}, Chunk: c}
		_, err := m.Invoke(clo)
		if err == nil {
			t.Fatal("underflowing concat did not trap")
		}
		return err.Error(), m.Steps
	}
	wantErr, wantSteps := run(&Chunk{Name: "u", Code: wire})
	gotErr, gotSteps := run(&Chunk{Name: "u", Code: wire, Quick: quick, quickSrc: []int32{0, 1, 3}})
	if gotErr != wantErr || gotSteps != wantSteps {
		t.Errorf("quickened: %q after %d steps, wire: %q after %d", gotErr, gotSteps, wantErr, wantSteps)
	}
}

// TestQConcatNSplitsLongRuns: W is a byte, so a run of 300 concats fuses
// as 255 then 45, and the split chain folds exactly like the wire one.
func TestQConcatNSplitsLongRuns(t *testing.T) {
	src := "let f a = a" + strings.Repeat(" ^ a", 300)
	l := StdLoader(NewMachine())
	obj, _, err := CompileLevel("P", src, l.SigEnv(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs []int64
	for _, c := range obj.Chunks {
		for _, ins := range c.Quick {
			if ins.Op == qConcatN {
				runs = append(runs, ins.A)
			}
		}
	}
	if !reflect.DeepEqual(runs, []int64{255, 45}) {
		t.Errorf("concat runs = %v, want [255 45]", runs)
	}
	if o := assertParity(t, src, "f", bigFuel, "xy"); o.val != fmt.Sprintf("%q", strings.Repeat("xy", 301)) {
		t.Errorf("f = %s", o.val)
	}
}
