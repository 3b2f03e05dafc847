package vm

import (
	"fmt"
	"strings"
	"testing"
)

// compileAndLoad compiles src as module name against a fresh standard
// loader (Safestd, String, Hashtbl) and loads it through the full
// encode/decode/link path, so every test exercises serialization too.
func compileAndLoad(t testing.TB, name, src string) (*Loader, *LinkedModule) {
	t.Helper()
	l := StdLoader(NewMachine())
	lm := mustLoad(t, l, name, src)
	return l, lm
}

func mustLoad(t testing.TB, l *Loader, name, src string) *LinkedModule {
	t.Helper()
	obj, _, err := Compile(name, src, l.SigEnv())
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	lm, err := l.Load(obj.Encode())
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return lm
}

// call invokes an exported function.
func call(t *testing.T, l *Loader, lm *LinkedModule, fn string, args ...Value) Value {
	t.Helper()
	f, ok := lm.Global(fn)
	if !ok {
		t.Fatalf("no export %s", fn)
	}
	v, err := l.Machine().Invoke(f, args...)
	if err != nil {
		t.Fatalf("invoke %s: %v", fn, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	l, lm := compileAndLoad(t, "Arith", `
let add a b = a + b
let compute x = (x * 3 - 4) / 2 + 100 mod 7
let neg x = -x
`)
	if v := call(t, l, lm, "add", int64(2), int64(40)); v != int64(42) {
		t.Errorf("add = %v", v)
	}
	if v := call(t, l, lm, "compute", int64(10)); v != int64((10*3-4)/2+100%7) {
		t.Errorf("compute = %v", v)
	}
	if v := call(t, l, lm, "neg", int64(5)); v != int64(-5) {
		t.Errorf("neg = %v", v)
	}
}

func TestRecursionAndTailCalls(t *testing.T) {
	l, lm := compileAndLoad(t, "Rec", `
let rec fact n = if n <= 1 then 1 else n * fact (n - 1)
let rec count acc n = if n = 0 then acc else count (acc + 1) (n - 1)
`)
	if v := call(t, l, lm, "fact", int64(10)); v != int64(3628800) {
		t.Errorf("fact 10 = %v", v)
	}
	// Deep tail recursion must not overflow the frame limit.
	if v := call(t, l, lm, "count", int64(0), int64(100000)); v != int64(100000) {
		t.Errorf("count = %v", v)
	}
}

func TestNonTailRecursionDepthLimited(t *testing.T) {
	l, lm := compileAndLoad(t, "Deep", `
let rec sum n = if n = 0 then 0 else n + sum (n - 1)
`)
	f, _ := lm.Global("sum")
	if _, err := l.Machine().Invoke(f, int64(100000)); err == nil {
		t.Error("deep non-tail recursion should trap on stack overflow")
	} else if !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v", err)
	}
	// Within limits it works.
	if v := call(t, l, lm, "sum", int64(1000)); v != int64(500500) {
		t.Errorf("sum 1000 = %v", v)
	}
}

func TestClosuresCaptureEnvironment(t *testing.T) {
	l, lm := compileAndLoad(t, "Clo", `
let make_adder n = fun x -> x + n
let apply f x = f x
let add10 = make_adder 10
let use () = apply add10 32
`)
	if v := call(t, l, lm, "use", Unit{}); v != int64(42) {
		t.Errorf("use = %v", v)
	}
}

func TestNestedRecursionViaClosure(t *testing.T) {
	l, lm := compileAndLoad(t, "Nest", `
let rec outer n =
  let helper x = outer x in
  if n = 0 then 99 else helper (n - 1)
`)
	if v := call(t, l, lm, "outer", int64(5)); v != int64(99) {
		t.Errorf("outer = %v", v)
	}
}

func TestLocalLetRec(t *testing.T) {
	l, lm := compileAndLoad(t, "LocalRec", `
let run n =
  let rec loop acc i = if i = 0 then acc else loop (acc + i) (i - 1) in
  loop 0 n
`)
	if v := call(t, l, lm, "run", int64(100)); v != int64(5050) {
		t.Errorf("run = %v", v)
	}
}

func TestPartialApplication(t *testing.T) {
	l, lm := compileAndLoad(t, "Partial", `
let add3 a b c = a + b + c
let partial () =
  let f = add3 1 in
  let g = f 2 in
  g 39
let overapply () =
  let pair a = fun b -> a * 100 + b in
  pair 4 2
`)
	if v := call(t, l, lm, "partial", Unit{}); v != int64(42) {
		t.Errorf("partial = %v", v)
	}
	if v := call(t, l, lm, "overapply", Unit{}); v != int64(402) {
		t.Errorf("overapply = %v", v)
	}
}

func TestRefsAndWhile(t *testing.T) {
	l, lm := compileAndLoad(t, "Refs", `
let sum_to n =
  let acc = ref 0 in
  let i = ref 1 in
  while !i <= n do
    acc := !acc + !i;
    i := !i + 1
  done;
  !acc
`)
	if v := call(t, l, lm, "sum_to", int64(100)); v != int64(5050) {
		t.Errorf("sum_to = %v", v)
	}
}

func TestForLoop(t *testing.T) {
	l, lm := compileAndLoad(t, "ForL", `
let squares n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + i * i
  done;
  !acc
let empty_range () =
  let acc = ref 0 in
  for i = 5 to 1 do acc := !acc + 1 done;
  !acc
`)
	if v := call(t, l, lm, "squares", int64(5)); v != int64(55) {
		t.Errorf("squares = %v", v)
	}
	if v := call(t, l, lm, "empty_range", Unit{}); v != int64(0) {
		t.Errorf("empty_range = %v", v)
	}
}

func TestStringsAndComparison(t *testing.T) {
	l, lm := compileAndLoad(t, "Str", `
let greet name = "hello, " ^ name
let third s = String.get s 2
let mid s = String.sub s 1 3
let cmp a b = if a < b then 0 - 1 else if a > b then 1 else 0
`)
	if v := call(t, l, lm, "greet", "world"); v != "hello, world" {
		t.Errorf("greet = %v", v)
	}
	if v := call(t, l, lm, "third", "abcdef"); v != int64('c') {
		t.Errorf("third = %v", v)
	}
	if v := call(t, l, lm, "mid", "abcdef"); v != "bcd" {
		t.Errorf("mid = %v", v)
	}
	if v := call(t, l, lm, "cmp", "apple", "banana"); v != int64(-1) {
		t.Errorf("cmp = %v", v)
	}
}

func TestBooleanShortCircuit(t *testing.T) {
	l, lm := compileAndLoad(t, "Bools", `
let counter = ref 0
let bump () = counter := !counter + 1; true
let test_and x = x && bump ()
let test_or x = x || bump ()
let count () = !counter
`)
	// false && bump() must not bump.
	if v := call(t, l, lm, "test_and", false); v != false {
		t.Errorf("test_and false = %v", v)
	}
	if v := call(t, l, lm, "count", Unit{}); v != int64(0) {
		t.Errorf("short-circuit && evaluated rhs: count = %v", v)
	}
	// true || bump() must not bump.
	if v := call(t, l, lm, "test_or", true); v != true {
		t.Errorf("test_or true = %v", v)
	}
	if v := call(t, l, lm, "count", Unit{}); v != int64(0) {
		t.Errorf("short-circuit || evaluated rhs: count = %v", v)
	}
	call(t, l, lm, "test_and", true)
	if v := call(t, l, lm, "count", Unit{}); v != int64(1) {
		t.Errorf("&& with true lhs should evaluate rhs once: %v", v)
	}
}

// TestTuples: a tuple is a pointer to its elements, whether the switchlet
// or the host built it, and destructures the same way either way.
func TestTuples(t *testing.T) {
	l, lm := compileAndLoad(t, "Tup", `
let swap p = let (a, b) = p in (b, a)
let first3 t = let (a, b, c) = t in a
let last4 t = let (a, b, c, d) = t in d
let mk4 a = (a, (a, a + 1), "z", true)
let pair_math p = (fst p) * 10 + (snd p)
`)
	v := call(t, l, lm, "swap", &[2]Value{int64(1), "x"})
	if tu, ok := v.(*[2]Value); !ok || tu[0] != "x" || tu[1] != int64(1) {
		t.Errorf("swap = %v", FormatValue(v))
	}
	if v := call(t, l, lm, "first3", &[3]Value{int64(7), int64(8), int64(9)}); v != int64(7) {
		t.Errorf("first3 = %v", v)
	}
	if v := call(t, l, lm, "last4", &[4]Value{int64(1), int64(2), int64(3), "d"}); v != "d" {
		t.Errorf("last4 = %v", v)
	}
	if v := call(t, l, lm, "mk4", int64(1)); FormatValue(v) != `(1, (1, 2), "z", true)` {
		t.Errorf("mk4 = %s (%T)", FormatValue(v), v)
	}
	if v := call(t, l, lm, "pair_math", &[2]Value{int64(4), int64(2)}); v != int64(42) {
		t.Errorf("pair_math = %v", v)
	}
}

// TestTupleSemanticsByArity pins equality, ordering, fst/snd and rendering
// for every arity the verifier admits, at -O0 and -O1 alike. The operands
// come from the host, so one polymorphic function can be handed tuples of
// different arities, which the type checker never lets a switchlet build:
// they compare unequal, and ordering them traps.
func TestTupleSemanticsByArity(t *testing.T) {
	const src = `
let eq a b = a = b
let ne a b = a <> b
let lt a b = a < b
let le a b = a <= b
let gt a b = a > b
let ge a b = a >= b
let eq_if a b = if a = b then 1 else 0
let lt_if a b = if a < b then 1 else 0
let first p = fst p
let second p = snd p
`
	pair := func(a, b Value) Value { return &[2]Value{a, b} }
	triple := func(a, b, c Value) Value { return &[3]Value{a, b, c} }
	quad := func(a, b, c, d Value) Value { return &[4]Value{a, b, c, d} }
	for _, r := range []struct {
		a, b Value
		eq   bool
		cmp  int // -1, 0, 1; 2 = ordering traps
	}{
		{pair(int64(1), "x"), pair(int64(1), "x"), true, 0},
		{pair(int64(1), "a"), pair(int64(1), "b"), false, -1},
		{pair(int64(2), "a"), pair(int64(1), "b"), false, 1},
		{triple(int64(1), int64(2), int64(3)), triple(int64(1), int64(2), int64(3)), true, 0},
		{triple(int64(1), int64(2), int64(3)), triple(int64(1), int64(2), int64(4)), false, -1},
		{triple(true, "b", int64(0)), triple(true, "a", int64(9)), false, 1},
		{quad(int64(1), int64(2), "c", false), quad(int64(1), int64(2), "c", false), true, 0},
		{quad(int64(1), int64(2), "c", false), quad(int64(1), int64(2), "c", true), false, -1},
		{quad(int64(1), int64(2), "d", false), quad(int64(1), int64(2), "c", true), false, 1},
		{pair(int64(1), pair(int64(2), int64(3))), pair(int64(1), pair(int64(2), int64(4))), false, -1},
		{pair(int64(1), int64(2)), triple(int64(1), int64(2), int64(3)), false, 2},
		{triple(int64(1), int64(2), int64(3)), quad(int64(1), int64(2), int64(3), int64(4)), false, 2},
		{quad(int64(1), int64(2), int64(3), int64(4)), pair(int64(1), int64(2)), false, 2},
		{pair(int64(1), int64(2)), int64(1), false, 2},
	} {
		for _, c := range []struct {
			fn   string
			want string
		}{
			{"eq", fmt.Sprint(r.eq)},
			{"ne", fmt.Sprint(!r.eq)},
			{"eq_if", oneIf(r.eq)},
			{"lt", cmpWant(r.cmp, r.cmp < 0)},
			{"le", cmpWant(r.cmp, r.cmp <= 0)},
			{"gt", cmpWant(r.cmp, r.cmp > 0)},
			{"ge", cmpWant(r.cmp, r.cmp >= 0)},
			{"lt_if", cmpWant(r.cmp, oneIf(r.cmp < 0))},
		} {
			o := assertParity(t, src, c.fn, bigFuel, r.a, r.b)
			got := o.val
			if o.err != "" {
				got = o.err
			}
			if got != c.want {
				t.Errorf("%s %s %s = %s, want %s", c.fn, FormatValue(r.a), FormatValue(r.b), got, c.want)
			}
		}
	}

	p := pair(int64(1), "x")
	if o := assertParity(t, src, "first", bigFuel, p); o.val != "1" {
		t.Errorf("fst %s = %s %s", FormatValue(p), o.val, o.err)
	}
	if o := assertParity(t, src, "second", bigFuel, p); o.val != `"x"` {
		t.Errorf("snd %s = %s %s", FormatValue(p), o.val, o.err)
	}
	if o := assertParity(t, src, "first", bigFuel, int64(3)); o.err != "trap: fst: not a pair" {
		t.Errorf("fst 3: val %s err %q", o.val, o.err)
	}
	for v, want := range map[Value]string{
		p:                                     `(1, "x")`,
		triple(int64(1), "x", true):           `(1, "x", true)`,
		quad(int64(-1), "", Unit{}, p):        `(-1, "", (), (1, "x"))`,
		pair(pair(int64(1), int64(2)), "end"): `((1, 2), "end")`,
	} {
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue = %s, want %s", got, want)
		}
	}
}

// cmpWant renders the result an ordering test expects: the comparison
// result, or the mismatch trap when cmp is 2.
func cmpWant(cmp int, res any) string {
	if cmp == 2 {
		return "trap: comparison type mismatch"
	}
	return fmt.Sprint(res)
}

// oneIf renders what `if b then 1 else 0` returns.
func oneIf(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func TestHashtbl(t *testing.T) {
	l, lm := compileAndLoad(t, "Tbl", `
let t = Hashtbl.create 16
let put k v = Hashtbl.add t k v
let get k = Hashtbl.find t k
let has k = Hashtbl.mem t k
let del k = Hashtbl.remove t k
let size () = Hashtbl.length t
let sum_values () =
  let acc = ref 0 in
  Hashtbl.iter (fun k v -> acc := !acc + v) t;
  !acc
`)
	call(t, l, lm, "put", "a", int64(1))
	call(t, l, lm, "put", "b", int64(2))
	call(t, l, lm, "put", "a", int64(10)) // replace semantics
	if v := call(t, l, lm, "get", "a"); v != int64(10) {
		t.Errorf("get a = %v", v)
	}
	if v := call(t, l, lm, "size", Unit{}); v != int64(2) {
		t.Errorf("size = %v", v)
	}
	if v := call(t, l, lm, "has", "zzz"); v != false {
		t.Errorf("has zzz = %v", v)
	}
	if v := call(t, l, lm, "sum_values", Unit{}); v != int64(12) {
		t.Errorf("sum_values = %v", v)
	}
	call(t, l, lm, "del", "a")
	if v := call(t, l, lm, "size", Unit{}); v != int64(1) {
		t.Errorf("size after remove = %v", v)
	}
}

func TestHashtblFindMissingTraps(t *testing.T) {
	l, lm := compileAndLoad(t, "TblMiss", `
let t = Hashtbl.create 4
let get k = Hashtbl.find t k
let get_default k = try Hashtbl.find t k with 0 - 1
`)
	f, _ := lm.Global("get")
	if _, err := l.Machine().Invoke(f, "missing"); err == nil {
		t.Error("find on missing key should trap")
	} else if !strings.Contains(err.Error(), "Not_found") {
		t.Errorf("err = %v", err)
	}
	if v := call(t, l, lm, "get_default", "missing"); v != int64(-1) {
		t.Errorf("get_default = %v", v)
	}
}

func TestTryWithAndRaise(t *testing.T) {
	l, lm := compileAndLoad(t, "TryW", `
let safe_div a b = try a / b with 0
let nested x =
  try
    if x > 10 then raise "too big" else x * 2
  with 999
let reraise () = try raise "inner" with 7
`)
	if v := call(t, l, lm, "safe_div", int64(10), int64(2)); v != int64(5) {
		t.Errorf("safe_div = %v", v)
	}
	if v := call(t, l, lm, "safe_div", int64(10), int64(0)); v != int64(0) {
		t.Errorf("safe_div by zero = %v", v)
	}
	if v := call(t, l, lm, "nested", int64(50)); v != int64(999) {
		t.Errorf("nested = %v", v)
	}
	if v := call(t, l, lm, "nested", int64(3)); v != int64(6) {
		t.Errorf("nested small = %v", v)
	}
	if v := call(t, l, lm, "reraise", Unit{}); v != int64(7) {
		t.Errorf("reraise = %v", v)
	}
}

func TestTrapCrossesFrames(t *testing.T) {
	l, lm := compileAndLoad(t, "TrapX", `
let boom () = raise "deep failure"
let intermediate () = boom ()
let catches () = try intermediate () with 42
`)
	if v := call(t, l, lm, "catches", Unit{}); v != int64(42) {
		t.Errorf("catches = %v", v)
	}
}

func TestFuelExhaustion(t *testing.T) {
	m := NewMachine()
	m.MaxSteps = 10000
	l := StdLoader(m)
	lm := mustLoad(t, l, "Spin", `
let rec spin n = spin (n + 1)
`)
	f, _ := lm.Global("spin")
	_, err := m.Invoke(f, int64(0))
	if err == nil || !strings.Contains(err.Error(), "fuel") {
		t.Errorf("infinite loop should exhaust fuel, got %v", err)
	}
}

func TestTopLevelInitForms(t *testing.T) {
	l, lm := compileAndLoad(t, "Init", `
let state = ref 0
let _ = state := 41
let _ = state := !state + 1
let read () = !state
`)
	if v := call(t, l, lm, "read", Unit{}); v != int64(42) {
		t.Errorf("init forms did not run in order: %v", v)
	}
}

func TestInstructionAccounting(t *testing.T) {
	m := NewMachine()
	l := StdLoader(m)
	lm := mustLoad(t, l, "Acct", `
let rec loop n = if n = 0 then 0 else loop (n - 1)
let work () = loop 100
let alloc () = "aaaa" ^ "bbbb"
`)
	before := m.Steps
	call(t, l, lm, "work", Unit{})
	steps := m.Steps - before
	if steps < 300 || steps > 3000 {
		t.Errorf("100-iteration loop executed %d instructions; expect a few hundred", steps)
	}
	ab := m.AllocBytes
	call(t, l, lm, "alloc", Unit{})
	if m.AllocBytes-ab < 8 {
		t.Errorf("string concat should account at least 8 alloc bytes, got %d", m.AllocBytes-ab)
	}
}

func TestCrossModuleImport(t *testing.T) {
	l := StdLoader(NewMachine())
	mustLoad(t, l, "Mathlib", `
let double x = x * 2
let offset = ref 100
let with_offset x = x + !offset
`)
	lm2 := mustLoad(t, l, "Client", `
let use x = Mathlib.double (Mathlib.with_offset x)
`)
	if v := call(t, l, lm2, "use", int64(1)); v != int64(202) {
		t.Errorf("use = %v", v)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	// Compile Client against a *forged* signature of Provider that claims
	// an extra function; the link must fail with a digest mismatch, the
	// paper's defence against compiling against doctored interfaces.
	l := StdLoader(NewMachine())
	mustLoad(t, l, "Provider", `
let public_fn x = x + 1
`)

	forged := NewSigEnv()
	for _, name := range []string{"Safestd", "String", "Hashtbl"} {
		s, _ := l.SigEnv().Lookup(name)
		forged.Add(s)
	}
	fsig := NewSignature("Provider")
	fsig.Add("public_fn", MustParseType("int -> int"))
	fsig.Add("private_fn", MustParseType("int -> int")) // not really exported
	forged.Add(fsig)

	obj, _, err := Compile("Evil", `let attack x = Provider.private_fn x`, forged)
	if err != nil {
		t.Fatalf("compile against forged signature should succeed locally: %v", err)
	}
	_, err = l.Load(obj.Encode())
	if err == nil {
		t.Fatal("link against forged signature must fail")
	}
	if !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("err = %v, want digest mismatch", err)
	}
}

func TestThinnedNameUnnameable(t *testing.T) {
	// A module compiled against the thinned environment cannot even name
	// an excluded function: compile-time error (paper §5.1.1).
	l := StdLoader(NewMachine())
	_, _, err := Compile("Evil", `let attack () = Hashtbl.steal_everything ()`, l.SigEnv())
	if err == nil {
		t.Fatal("naming a non-exported function must fail to compile")
	}
	if !strings.Contains(err.Error(), "no value") {
		t.Errorf("err = %v", err)
	}
}

func TestDuplicateModuleRejected(t *testing.T) {
	l := StdLoader(NewMachine())
	mustLoad(t, l, "Once", `let x = 1`)
	obj, _, err := Compile("Once", `let x = 2`, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(obj.Encode()); err == nil {
		t.Error("duplicate module load should fail")
	}
}

func TestInitTrapRollsBack(t *testing.T) {
	l := StdLoader(NewMachine())
	obj, _, err := Compile("Bad", `
let x = 1
let _ = raise "boom at load time"
`, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(obj.Encode()); err == nil {
		t.Fatal("trapping init should fail the load")
	}
	if _, ok := l.Module("Bad"); ok {
		t.Error("failed load must not register the module")
	}
	if _, ok := l.SigEnv().Lookup("Bad"); ok {
		t.Error("failed load must not register the signature")
	}
}

func TestObjectEncodingRoundTrip(t *testing.T) {
	l := StdLoader(NewMachine())
	obj, _, err := Compile("Round", `
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
let msg = "hello"
let use () = fib 10
`, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	enc := obj.Encode()
	dec, err := DecodeObject(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ModName != "Round" || len(dec.Chunks) != len(obj.Chunks) {
		t.Errorf("decode mismatch: %+v", dec)
	}
	if dec.ExportText != obj.ExportText || dec.ExportDigest != obj.ExportDigest {
		t.Error("export signature did not round trip")
	}
	lm, err := l.Load(enc)
	if err != nil {
		t.Fatal(err)
	}
	if v := call(t, l, lm, "use", Unit{}); v != int64(55) {
		t.Errorf("fib 10 = %v", v)
	}
}

func TestCorruptObjectRejected(t *testing.T) {
	l := StdLoader(NewMachine())
	obj, _, err := Compile("Corrupt", `let f x = x + 1`, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	enc := obj.Encode()
	for _, i := range []int{0, 5, len(enc) / 2, len(enc) - 3} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, err := l.Load(bad); err == nil {
			// A flip may land in a don't-care byte only if it still
			// decodes AND all digests match AND code verifies — the
			// digest over the export text makes silent acceptance of a
			// *meaningful* change vanishingly unlikely. Reject-or-load,
			// but never panic.
			t.Logf("flip at %d accepted (harmless region)", i)
		}
	}
	if _, err := l.Load([]byte("not an object")); err == nil {
		t.Error("garbage must be rejected")
	}
	if _, err := l.Load(nil); err == nil {
		t.Error("nil must be rejected")
	}
}

func TestUnloadRemovesModule(t *testing.T) {
	l := StdLoader(NewMachine())
	mustLoad(t, l, "Gone", `let x = 1`)
	if !l.Unload("Gone") {
		t.Fatal("unload failed")
	}
	if l.Unload("Gone") {
		t.Error("double unload should report false")
	}
	// After unload, a new module cannot link against it...
	if _, _, err := Compile("Client", `let y = Gone.x`, l.SigEnv()); err == nil {
		t.Error("compiling against unloaded module should fail")
	}
	// ...but the name is free for reuse.
	mustLoad(t, l, "Gone", `let x = 2`)
}

func TestSafestdBitOps(t *testing.T) {
	l, lm := compileAndLoad(t, "Bits", `
let word_at s i = (String.get s i) * 256 + String.get s (i + 1)
let masked x = land x 0xff
let shifted x = lsl x 8
let combined a b = lor (lsl a 8) b
`)
	if v := call(t, l, lm, "word_at", "\x12\x34", int64(0)); v != int64(0x1234) {
		t.Errorf("word_at = %#x", v)
	}
	if v := call(t, l, lm, "masked", int64(0x1ff)); v != int64(0xff) {
		t.Errorf("masked = %#x", v)
	}
	if v := call(t, l, lm, "shifted", int64(2)); v != int64(512) {
		t.Errorf("shifted = %v", v)
	}
	if v := call(t, l, lm, "combined", int64(0xab), int64(0xcd)); v != int64(0xabcd) {
		t.Errorf("combined = %#x", v)
	}
}

func TestStringBuilding(t *testing.T) {
	l, lm := compileAndLoad(t, "Build", `
let byte b = String.make 1 b
let two_bytes hi lo = byte hi ^ byte lo
`)
	if v := call(t, l, lm, "two_bytes", int64(0x12), int64(0x34)); v != "\x12\x34" {
		t.Errorf("two_bytes = %q", v)
	}
}

func TestHigherOrderFunctions(t *testing.T) {
	l, lm := compileAndLoad(t, "HOF", `
let twice f x = f (f x)
let compose f g = fun x -> f (g x)
let use () =
  let inc x = x + 1 in
  let dbl x = x * 2 in
  (twice inc 0) + (compose dbl inc) 10
`)
	if v := call(t, l, lm, "use", Unit{}); v != int64(2+22) {
		t.Errorf("use = %v", v)
	}
}

func TestShadowing(t *testing.T) {
	l, lm := compileAndLoad(t, "Shadow", `
let x = 1
let x = x + 10
let get () = x
let local () =
  let y = 5 in
  let y = y * 2 in
  y
`)
	if v := call(t, l, lm, "get", Unit{}); v != int64(11) {
		t.Errorf("top-level shadowing: %v", v)
	}
	if v := call(t, l, lm, "local", Unit{}); v != int64(10) {
		t.Errorf("local shadowing: %v", v)
	}
}

func TestPolymorphicEquality(t *testing.T) {
	l, lm := compileAndLoad(t, "Eq", `
let use () =
  if (1, "x") = (1, "x") then 1 else 0
let tuple_ne () =
  if (1, 2) <> (1, 3) then 1 else 0
let tuple_lt () =
  if (1, "a") < (1, "b") then 1 else 0
`)
	if v := call(t, l, lm, "use", Unit{}); v != int64(1) {
		t.Errorf("tuple equality: %v", v)
	}
	if v := call(t, l, lm, "tuple_ne", Unit{}); v != int64(1) {
		t.Errorf("tuple inequality: %v", v)
	}
	if v := call(t, l, lm, "tuple_lt", Unit{}); v != int64(1) {
		t.Errorf("tuple ordering: %v", v)
	}
}

func TestComparingFunctionsTraps(t *testing.T) {
	l, lm := compileAndLoad(t, "FnEq", `
let f x = x + 0
let g x = x + 0
let compare_them () = f = g
`)
	fv, _ := lm.Global("compare_them")
	if _, err := l.Machine().Invoke(fv, Unit{}); err == nil {
		t.Error("comparing functions should trap")
	}
}
