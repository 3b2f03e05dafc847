package vm

import (
	"testing"
)

// TestZeroArityNativeApply covers the zero-arity application rule: a
// 0-arity *Native applied to zero arguments must execute, not be returned
// unapplied (a long-standing shadowing bug: the len(args)==0 early return
// used to win over the Native case).
func TestZeroArityNativeApply(t *testing.T) {
	m := NewMachine()
	calls := 0
	tick := &Native{Name: "tick", Arity: 0, Fn: func(_ *Ctx, _ []Value) (Value, error) {
		calls++
		return int64(7), nil
	}}
	v, err := m.Invoke(tick)
	if err != nil {
		t.Fatalf("invoke 0-arity native: %v", err)
	}
	if v != int64(7) {
		t.Fatalf("0-arity native returned %v, want 7", v)
	}
	if calls != 1 {
		t.Fatalf("0-arity native ran %d times, want 1", calls)
	}
}

// TestOverApplicationChains covers curried over-application through
// natives: each stage consumes its arity and the result is applied to the
// remainder.
func TestOverApplicationChains(t *testing.T) {
	m := NewMachine()
	add := &Native{Name: "add", Arity: 1, Fn: func(_ *Ctx, a []Value) (Value, error) {
		x := a[0].(int64)
		return &Native{Name: "add2", Arity: 1, Fn: func(_ *Ctx, b []Value) (Value, error) {
			return x + b[0].(int64), nil
		}}, nil
	}}
	v, err := m.Invoke(add, int64(2), int64(40))
	if err != nil {
		t.Fatalf("over-application: %v", err)
	}
	if v != int64(42) {
		t.Fatalf("over-application = %v, want 42", v)
	}

	// A 0-arity native in an over-application chain: it runs on zero
	// arguments and its result absorbs the rest.
	thunk := &Native{Name: "thunk", Arity: 0, Fn: func(_ *Ctx, _ []Value) (Value, error) {
		return add, nil
	}}
	v, err = m.Invoke(thunk, int64(3), int64(4))
	if err != nil {
		t.Fatalf("0-arity over-application: %v", err)
	}
	if v != int64(7) {
		t.Fatalf("0-arity over-application = %v, want 7", v)
	}

	// Under-application still returns the callable unapplied.
	v, err = m.Invoke(add)
	if err != nil {
		t.Fatalf("apply to zero args: %v", err)
	}
	if v != add {
		t.Fatalf("apply add to zero args = %v, want add itself", v)
	}
}

// TestSteadyStateZeroAllocs is the allocation-budget regression test for
// the interpreter core: once warm, running pure swl code (calls, tail
// calls, arithmetic, comparisons, locals) performs zero Go-heap
// allocations. Pooled frames, the shared value arena and the small-int
// cache are what this pins down.
func TestSteadyStateZeroAllocs(t *testing.T) {
	l, lm := compileAndLoad(t, "Spin", `
let rec spin n = if n = 0 then 0 else spin (n - 1)
let rec sum n acc = if n = 0 then acc else sum (n - 1) (acc + n)
let work n = spin n + sum n 0
`)
	fn, ok := lm.Global("work")
	if !ok {
		t.Fatal("no export work")
	}
	m := l.Machine()
	args := []Value{int64(64)}
	run := func() {
		if _, err := m.InvokeArgs(fn, args); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	run() // warm the arena and frame pool
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("steady-state interpreter allocs/run = %v, want 0", allocs)
	}
}

// TestDeepCallZeroAllocs pins the non-tail call path (frame pushes) too.
func TestDeepCallZeroAllocs(t *testing.T) {
	l, lm := compileAndLoad(t, "Deep", `
let rec depth n = if n = 0 then 0 else 1 + depth (n - 1)
`)
	fn, _ := lm.Global("depth")
	m := l.Machine()
	args := []Value{int64(32)}
	run := func() {
		if _, err := m.InvokeArgs(fn, args); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("deep-call allocs/run = %v, want 0", allocs)
	}
}

// TestBoxedResultsAmortizedAllocs pins the slab boxers: code whose
// results cannot come from the small-int cache — wide integers, tuples —
// must still average zero allocations per run, because value boxes are
// carved a slab at a time instead of one heap cell each.
func TestBoxedResultsAmortizedAllocs(t *testing.T) {
	l, lm := compileAndLoad(t, "Boxy", `
let wide n = (n * 1000003 + 70000, n * 999983)
let rec churn n acc =
  if n = 0 then acc
  else
    let (a, b) = wide acc in
    churn (n - 1) (a - b)
`)
	fn, _ := lm.Global("churn")
	m := l.Machine()
	args := []Value{int64(8), int64(70000)}
	run := func() {
		if _, err := m.InvokeArgs(fn, args); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("boxed-result allocs/run = %v, want amortized 0", allocs)
	}
}

// TestStringResultsAmortizedAllocs is the same budget for strings: every
// string a switchlet builds — a ^ b, string_of_int past the static table,
// String.make — takes its bytes from the machine's arena and its header
// from the slab boxer, so a loop that builds two dozen of them per run
// still averages zero allocations (one per string, and more, before).
func TestStringResultsAmortizedAllocs(t *testing.T) {
	l, lm := compileAndLoad(t, "Stringy", `
let rec churn n acc =
  if n = 0 then String.length acc
  else churn (n - 1) ((String.make 3 65) ^ (string_of_int (1000 + n)))
`)
	fn, _ := lm.Global("churn")
	m := l.Machine()
	args := []Value{int64(8), ""}
	run := func() {
		if v, err := m.InvokeArgs(fn, args); err != nil || v != int64(7) {
			t.Fatalf("invoke: %v, %v", v, err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("string-result allocs/run = %v, want amortized 0", allocs)
	}
}

// TestStepsExactAcrossNativeCalls verifies the hoisted fuel/step counters
// stay exact at every point native code can observe them: the delta seen
// by a native mid-run must equal the instructions executed before its call
// site, and the total after the run must match a pure re-count.
func TestStepsExactAcrossNativeCalls(t *testing.T) {
	m := NewMachine()
	l := StdLoader(m)
	var observed []uint64
	sig, vals := BuildUnit("Probe", []BuiltinDef{
		{"mark", "int -> int", 1, func(ctx *Ctx, a []Value) (Value, error) {
			observed = append(observed, ctx.M.Steps)
			return a[0], nil
		}},
	})
	if err := l.AddUnit(sig, vals); err != nil {
		t.Fatal(err)
	}
	lm := mustLoad(t, l, "Obs", `
let f x = Probe.mark (x + 1) + Probe.mark (x + 2)
`)
	fn, _ := lm.Global("f")
	base := m.Steps
	if _, err := m.Invoke(fn, int64(1)); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 2 {
		t.Fatalf("mark ran %d times, want 2", len(observed))
	}
	if observed[0] <= base || observed[1] <= observed[0] {
		t.Fatalf("step counter not strictly increasing across native calls: base=%d observed=%v", base, observed)
	}
	// Running the same function again must cost exactly the same steps —
	// the local-counter flush must not drift.
	mid := m.Steps
	if _, err := m.Invoke(fn, int64(1)); err != nil {
		t.Fatal(err)
	}
	if d1, d2 := mid-base, m.Steps-mid; d1 != d2 {
		t.Fatalf("step deltas differ across identical runs: %d vs %d", d1, d2)
	}
}

func BenchmarkVMDispatch(b *testing.B) {
	l := StdLoader(NewMachine())
	obj, _, err := Compile("Bench", `
let rec spin n = if n = 0 then 0 else spin (n - 1)
let work n = spin n
`, l.SigEnv())
	if err != nil {
		b.Fatal(err)
	}
	lm, err := l.Load(obj.Encode())
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := lm.Global("work")
	m := l.Machine()
	args := []Value{int64(1000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.InvokeArgs(fn, args); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps)/float64(b.N), "steps/op")
}
