package vm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics feeds the parser mangled variants of real programs
// and random token soup; every outcome must be a value or an error, never
// a panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`let f x = x + 1`,
		`let rec go i = if i < 10 then go (i + 1) else i`,
		`let t = Hashtbl.create 4
let _ = Hashtbl.add t "k" (1, "v")`,
		`let f () = try raise "x" with 3`,
		`let g a b c = (a, b, c)`,
	}
	frags := []string{"let", "in", "if", "then", "else", "fun", "->", "(", ")",
		"begin", "end", ";", "+", "*", "=", "\"str\"", "42", "x", "Mod.y",
		"while", "do", "done", "for", "to", "rec", "!", ":=", ",", "try", "with", "raise"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		var src string
		if i < len(seeds) {
			src = seeds[i]
		} else if i%3 == 0 {
			// Mutate a seed by deleting a random chunk.
			s := seeds[rng.Intn(len(seeds))]
			a := rng.Intn(len(s))
			b := a + rng.Intn(len(s)-a)
			src = s[:a] + s[b:]
		} else {
			var sb strings.Builder
			n := rng.Intn(30)
			for j := 0; j < n; j++ {
				sb.WriteString(frags[rng.Intn(len(frags))])
				sb.WriteByte(' ')
			}
			src = sb.String()
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = ParseModule("Fuzz", src)
		}()
	}
}

// TestDecodeObjectNeverPanics feeds random and truncated bytes to the
// object decoder.
func TestDecodeObjectNeverPanics(t *testing.T) {
	l := StdLoader(NewMachine())
	obj, _, err := Compile("Seed", `
let rec f x = if x = 0 then 0 else f (x - 1)
let g = (1, "two", true)
`, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	enc := obj.Encode()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var b []byte
		switch i % 3 {
		case 0: // truncation
			b = enc[:rng.Intn(len(enc))]
		case 1: // random corruption
			b = append([]byte(nil), enc...)
			for k := 0; k < 1+rng.Intn(8); k++ {
				b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			}
		case 2: // pure noise with valid magic
			b = make([]byte, rng.Intn(200))
			rng.Read(b)
			if len(b) >= 4 {
				copy(b, "SWO1")
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on case %d: %v", i, r)
				}
			}()
			o, err := DecodeObject(b)
			if err == nil {
				// Structurally valid after mutation: Verify and even
				// loading must still never panic the host.
				_ = o.Verify()
			}
		}()
	}
}

// TestLoadCorruptedObjectsNeverPanics goes further: objects that decode
// and verify are linked and executed; traps are fine, panics are not.
func TestLoadCorruptedObjectsNeverPanics(t *testing.T) {
	base := StdLoader(NewMachine())
	obj, _, err := Compile("Seed", `
let table = Hashtbl.create 4
let _ = Hashtbl.add table "x" 1
let f n = n * Hashtbl.find table "x"
`, base.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	enc := obj.Encode()
	rng := rand.New(rand.NewSource(13))
	loaded := 0
	for i := 0; i < 1500; i++ {
		b := append([]byte(nil), enc...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("load panicked: %v", r)
				}
			}()
			l := StdLoader(NewMachine())
			if lm, err := l.Load(b); err == nil {
				loaded++
				if fv, ok := lm.Global("f"); ok {
					_, _ = l.Machine().Invoke(fv, int64(3))
				}
			}
		}()
	}
	t.Logf("corrupted objects that still loaded: %d/1500", loaded)
}

// TestArithmeticAgainstReference cross-checks compiled swl arithmetic
// against Go evaluation over random expression trees.
func TestArithmeticAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// gen builds a random expression and its Go value; depth-bounded.
	var gen func(depth int) (string, int64)
	gen = func(depth int) (string, int64) {
		if depth == 0 || rng.Intn(3) == 0 {
			v := int64(rng.Intn(200) - 100)
			if v < 0 {
				return fmt.Sprintf("(0 - %d)", -v), v
			}
			return fmt.Sprintf("%d", v), v
		}
		a, av := gen(depth - 1)
		b, bv := gen(depth - 1)
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("(%s + %s)", a, b), av + bv
		case 1:
			return fmt.Sprintf("(%s - %s)", a, b), av - bv
		case 2:
			return fmt.Sprintf("(%s * %s)", a, b), av * bv
		default:
			if bv == 0 {
				return fmt.Sprintf("(%s + %s)", a, b), av + bv
			}
			return fmt.Sprintf("(%s / %s)", a, b), av / bv
		}
	}
	for i := 0; i < 60; i++ {
		expr, want := gen(5)
		l := StdLoader(NewMachine())
		lm := mustLoad(t, l, "Expr", "let result = "+expr)
		got, _ := lm.Global("result")
		if got != want {
			t.Fatalf("%s = %v, want %d", expr, got, want)
		}
	}
}

// TestCompileDeterministic: same source, byte-identical object.
func TestCompileDeterministic(t *testing.T) {
	src := `
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
let table = Hashtbl.create 8
let _ = Hashtbl.add table "fib10" (fib 10)
`
	l := StdLoader(NewMachine())
	o1, _, err := Compile("Det", src, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	o2, _, err := Compile("Det", src, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	if string(o1.Encode()) != string(o2.Encode()) {
		t.Error("compilation is not deterministic")
	}
}

// TestEncodeDecodeIdentity: decode(encode(x)) re-encodes identically.
func TestEncodeDecodeIdentity(t *testing.T) {
	l := StdLoader(NewMachine())
	for _, src := range []string{
		`let x = 1`,
		`let f a b = a ^ b`,
		`let rec g n = if n = 0 then () else g (n - 1)`,
		`let h = fun x -> fun y -> (x, y)`,
	} {
		o, _, err := Compile("Ident", src, l.SigEnv())
		if err != nil {
			t.Fatal(err)
		}
		enc := o.Encode()
		dec, err := DecodeObject(enc)
		if err != nil {
			t.Fatal(err)
		}
		if string(dec.Encode()) != string(enc) {
			t.Errorf("re-encode differs for %q", src)
		}
	}
}

// TestExecutionDeterministic: instruction and allocation accounting is
// identical across runs.
func TestExecutionDeterministic(t *testing.T) {
	run := func() (uint64, uint64, Value) {
		m := NewMachine()
		l := StdLoader(m)
		lm := mustLoad(t, l, "D", `
let t = Hashtbl.create 8
let work () =
  for i = 0 to 50 do
    Hashtbl.add t (string_of_int i) (i * i)
  done;
  Hashtbl.length t
`)
		f, _ := lm.Global("work")
		v, err := m.Invoke(f, Unit{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Steps, m.AllocBytes, v
	}
	s1, a1, v1 := run()
	s2, a2, v2 := run()
	if s1 != s2 || a1 != a2 || v1 != v2 {
		t.Errorf("nondeterministic execution: (%d,%d,%v) vs (%d,%d,%v)", s1, a1, v1, s2, a2, v2)
	}
	if v1 != int64(51) {
		t.Errorf("work() = %v", v1)
	}
}

// TestDisassembleSmoke exercises the disassembler over the shipped
// switchlet-like constructs.
func TestDisassembleSmoke(t *testing.T) {
	l := StdLoader(NewMachine())
	obj, _, err := Compile("Dis", `
let rec loop i = if i = 0 then "done" else loop (i - 1)
let cl = fun x -> fun y -> x + y
let big = "a string constant longer than twenty-four characters"
`, l.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	out := Disassemble(obj)
	for _, want := range []string{"module Dis", "export digest", "chunk", "tail_call", "closure", "..."} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
	if InstrCount(obj) <= 0 {
		t.Error("InstrCount")
	}
}

// TestQuickCompileRoundTrips property-checks that any compilable constant
// binding evaluates to itself.
func TestQuickCompileRoundTrips(t *testing.T) {
	f := func(n int32, s string, b bool) bool {
		// Keep strings printable-safe by hex-escaping.
		esc := ""
		for i := 0; i < len(s) && i < 40; i++ {
			esc += fmt.Sprintf("\\x%02x", s[i])
		}
		src := fmt.Sprintf("let i = %d\nlet s = \"%s\"\nlet b = %t", abs32(n), esc, b)
		l := StdLoader(NewMachine())
		obj, _, err := Compile("Q", src, l.SigEnv())
		if err != nil {
			return false
		}
		lm, err := l.Load(obj.Encode())
		if err != nil {
			return false
		}
		iv, _ := lm.Global("i")
		sv, _ := lm.Global("s")
		bv, _ := lm.Global("b")
		return iv == int64(abs32(n)) && sv == truncStr(s, 40) && bv == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStringSubHugeOperandsTrap: String.sub's bounds test must not add its
// operands. pos+n wraps negative for operands near 2^62 and used to pass
// the check, so a verified switchlet took the host down with a Go slice
// panic; both the native (-O0) and the inlined q.str_sub (-O1) must trap.
func TestStringSubHugeOperandsTrap(t *testing.T) {
	const src = `
let lit s = String.sub s (lsl 1 62) (lsl 1 62)
let sub s pos n = String.sub s pos n
`
	const trap = "trap: String.sub: out of bounds"
	for level := 0; level <= 1; level++ {
		if o := runPath(t, level, src, "lit", bigFuel, "abcdef"); o.err != trap {
			t.Errorf("-O%d lit: val %s err %q, want %q", level, o.val, o.err, trap)
		}
		for _, c := range []struct {
			pos, n int64
			want   string // "" = trap
		}{
			{1 << 62, 1 << 62, ""},
			{1, math.MaxInt64, ""},
			{math.MaxInt64, 1, ""},
			{math.MaxInt64, math.MaxInt64, ""},
			{0, math.MaxInt64, ""},
			{math.MinInt64, 0, ""},
			{0, math.MinInt64, ""},
			{7, 0, ""},
			{6, 1, ""},
			{6, 0, `""`},
			{0, 6, `"abcdef"`},
			{2, 4, `"cdef"`},
		} {
			o := runPath(t, level, src, "sub", bigFuel, "abcdef", c.pos, c.n)
			if c.want == "" && o.err != trap || c.want != "" && (o.err != "" || o.val != c.want) {
				t.Errorf("-O%d String.sub s %d %d: val %s err %q, want val %q", level, c.pos, c.n, o.val, o.err, c.want)
			}
		}
	}
}

func abs32(n int32) int64 {
	v := int64(n)
	if v < 0 {
		v = -v
	}
	return v
}

func truncStr(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
