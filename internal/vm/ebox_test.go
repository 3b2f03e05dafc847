package vm

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestStringMeteringTable pins what each string-producing site meters.
// The arena and the static tables change what a string costs the host,
// never what it costs the switchlet: the want column was taken from the
// commit before they existed, so a metering slip fails here by name and
// not only as a moved golden fingerprint.
func TestStringMeteringTable(t *testing.T) {
	rows := []struct {
		expr         string
		val          string
		steps, alloc uint64
	}{
		{`"" ^ ""`, `""`, 4, 0},
		{`"ab" ^ "cde"`, `"abcde"`, 4, 5},
		{`("a" ^ "b") ^ ("c" ^ "")`, `"abc"`, 8, 6},
		{`String.make 0 0`, `""`, 4, 0},
		{`String.make 1 65`, `"A"`, 4, 1},
		{`String.make 3 65`, `"AAA"`, 4, 3},
		{`String.make 600 66`, strconv.Quote(strings.Repeat("B", 600)), 4, 600},
		{`string_of_int (0 - 1)`, `"-1"`, 5, 2},
		{`string_of_int (0 - 2)`, `"-2"`, 5, 2},
		{`string_of_int 0`, `"0"`, 3, 1},
		{`string_of_int 255`, `"255"`, 3, 3},
		{`string_of_int 256`, `"256"`, 3, 3},
		{`string_of_int 1000`, `"1000"`, 3, 4},
		{`string_of_int (lsl 1 62 + lsl 1 62)`, `"-9223372036854775808"`, 11, 20},
		{`String.sub "abcdef" 1 3`, `"bcd"`, 5, 3},
		{`String.sub "abcdef" 6 0`, `""`, 5, 0},
		{`String.sub (String.sub "abcdef" 1 4) 1 2`, `"cd"`, 9, 6},
		{`!(ref "x")`, `"x"`, 5, 0},
	}
	var src strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&src, "let e%d () = %s\n", i, r.expr)
	}
	for level := 0; level <= 1; level++ {
		for i, r := range rows {
			o := runPath(t, level, src.String(), fmt.Sprintf("e%d", i), bigFuel, Unit{})
			if o.err != "" || o.val != r.val || o.steps != r.steps || o.alloc != r.alloc {
				t.Errorf("-O%d %s: val %s steps %d alloc %d err %q, want val %s steps %d alloc %d",
					level, r.expr, o.val, o.steps, o.alloc, o.err, r.val, r.steps, r.alloc)
			}
		}
	}
}

// TestShortStringsAreShared: every site that can build a string of at
// most two bytes returns the process-wide one, at -O0 and -O1 alike, so
// building it costs the host nothing. Each site is checked for its value,
// for two builds sharing one data pointer, for 10 000 builds allocating
// no host byte, and for -O0 parity of the value, Steps and AllocBytes.
func TestShortStringsAreShared(t *testing.T) {
	const src = `
let cat a b = a ^ b
let cat3 a b c = a ^ b ^ c
let mk2 c = String.make 2 c
let sub s = let r = String.sub s 1 2 in r
let sub1 s = let r = String.sub s 3 1 in r
let soi n = string_of_int n
`
	requireOps(t, src, "q.concat_n", "q.str_sub")
	sites := []struct {
		site, fn string
		args     []Value
		want     string
	}{
		{"^", "cat", []Value{"x", "y"}, "xy"},
		{"q.concat_n", "cat3", []Value{"x", "", "y"}, "xy"},
		{"String.make 2", "mk2", []Value{int64(65)}, "AA"},
		{"String.sub (native at -O0, q.str_sub at -O1)", "sub", []Value{"abcd"}, "bc"},
		{"String.sub of one byte", "sub1", []Value{"abcd"}, "d"},
		{"string_of_int", "soi", []Value{int64(-7)}, "-7"},
	}
	for _, c := range sites {
		assertParity(t, src, c.fn, bigFuel, c.args...)
	}
	for level := 0; level <= 1; level++ {
		m := NewMachine()
		lm := loadLevel(t, m, level, src)
		for _, c := range sites {
			fn, _ := lm.Global(c.fn)
			build := func() string {
				v, err := m.InvokeArgs(fn, c.args)
				if err != nil {
					t.Fatalf("-O%d %s: %v", level, c.site, err)
				}
				return v.(string)
			}
			a, b := build(), build()
			if a != c.want || b != c.want {
				t.Errorf("-O%d %s = %q, %q, want %q", level, c.site, a, b, c.want)
				continue
			}
			if unsafe.StringData(a) != unsafe.StringData(b) || unsafe.StringData(a) != unsafe.StringData(shortStr(c.want).(string)) {
				t.Errorf("-O%d %s: two builds do not share the table's bytes", level, c.site)
			}
			// A build that allocated would show in every window; another
			// goroutine's odd allocation shows in one, so take the least
			// of three.
			least := ^uint64(0)
			for w := 0; w < 3 && least > 0; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 10_000; i++ {
					build()
				}
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got < least {
					least = got
				}
			}
			if least != 0 {
				t.Errorf("-O%d %s: 10000 builds allocated %d host bytes, want 0", level, c.site, least)
			}
		}
	}
	// The table's headers hide their data pointers from the collector;
	// the bytes must survive collections all the same.
	runtime.GC()
	runtime.GC()
	for i := 0; i < 1<<16; i++ {
		want := string([]byte{byte(i >> 8), byte(i)})
		if got := shortStr(want).(string); got != want {
			t.Fatalf("shortStr(%q) = %q", want, got)
		}
	}
}

// TestArenaStringsNeverChange is the arena's safety test: strings carved
// from many chunk generations (and the large-string fallback) keep their
// bytes while their neighbours are built, abandoned and collected. Every
// seventh string is kept alive both in a switchlet Hashtbl and on the Go
// side and compared with an independently computed oracle at the end. CI
// runs it under -race, which turns checkptr on for the unsafe.String and
// eface assembly underneath.
func TestArenaStringsNeverChange(t *testing.T) {
	l, lm := compileAndLoad(t, "Arena", `
let kept = Hashtbl.create 16
let keep k s = Hashtbl.add kept k s; ()
let find k = Hashtbl.find kept k
let rep n c = String.make n c
let cat a b = a ^ b
let soi n = string_of_int n
let cut s pos n = String.sub s pos n
`)
	m := l.Machine()
	fn := func(name string) Value {
		v, ok := lm.Global(name)
		if !ok {
			t.Fatalf("no export %s", name)
		}
		return v
	}
	keep, find, rep, cat, soi, cut := fn("keep"), fn("find"), fn("rep"), fn("cat"), fn("soi"), fn("cut")
	invoke := func(f Value, args ...Value) Value {
		v, err := m.InvokeArgs(f, args)
		if err != nil {
			t.Fatalf("invoke: %v", err)
		}
		return v
	}

	type held struct {
		key  int64
		val  Value
		want string
	}
	var holds []held
	const rounds, perRound = 8, 600
	for r := 0; r < rounds; r++ {
		for j := 0; j < perRound; j++ {
			i := int64(r*perRound + j)
			// Lengths sweep 0..700: past the quarter-chunk fallback and
			// across many chunk rollovers.
			n := (i * 37) % 701
			c := byte('a' + i%26)
			var got Value
			var want string
			switch i % 4 {
			case 0:
				got, want = invoke(rep, n, int64(c)), strings.Repeat(string(c), int(n))
			case 1:
				a := invoke(rep, n%19, int64(c))
				b := invoke(soi, i*7919-5000)
				got = invoke(cat, a, b)
				want = strings.Repeat(string(c), int(n%19)) + strconv.FormatInt(i*7919-5000, 10)
			case 2:
				got, want = invoke(soi, i-300), strconv.FormatInt(i-300, 10)
			case 3:
				whole := invoke(rep, n+4, int64(c))
				got, want = invoke(cut, whole, int64(2), n), strings.Repeat(string(c), int(n))
			}
			if got.(string) != want {
				t.Fatalf("string %d built wrong: %q, want %q", i, truncStr(got.(string), 40), truncStr(want, 40))
			}
			if i%7 == 0 {
				invoke(keep, i, got)
				holds = append(holds, held{i, got, want})
			}
		}
		runtime.GC()
	}
	runtime.GC()
	for _, h := range holds {
		if got := h.val.(string); got != h.want {
			t.Errorf("held string %d changed: %q, want %q", h.key, truncStr(got, 40), truncStr(h.want, 40))
		}
		if got := invoke(find, h.key).(string); got != h.want {
			t.Errorf("Hashtbl string %d changed: %q, want %q", h.key, truncStr(got, 40), truncStr(h.want, 40))
		}
	}
}

// TestSlabsFillTheirSizeClass measures what the allocator charges for each
// slab kind, from the runtime's own TotalAlloc counter rather than a table
// of size classes: the charge may exceed the payload by the 8-byte malloc
// header of a pointerful object plus at most 16 B of class rounding. A
// power-of-two slab of pointerful cells fails this by a whole class step
// (128 string headers: 2304 B charged for 2048).
func TestSlabsFillTheirSizeClass(t *testing.T) {
	const perSlabSlack = 8 + 16
	charged := func(fill func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fill()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	m := NewMachine()
	const slabs = 64
	for _, row := range []struct {
		name    string
		payload uint64 // bytes of cells in one slab
		fill    func() // fills exactly `slabs` fresh slabs
	}{
		{"IntBoxer", boxerSlabLen * 8, func() {
			for i := 0; i < slabs*boxerSlabLen; i++ {
				m.boxI(1 << 40)
			}
		}},
		{"StrBoxer", ptrSlabLen * 16, func() {
			for i := 0; i < slabs*ptrSlabLen; i++ {
				m.strBox.Box("frame")
			}
		}},
		{"refs", ptrSlabLen * 16, func() {
			for i := 0; i < slabs*ptrSlabLen; i++ {
				m.newRef(nil)
			}
		}},
		{"string arena", strChunkLen, func() {
			for i := 0; i < slabs*strChunkLen/8; i++ {
				m.newStr(8)
			}
		}},
	} {
		got := charged(row.fill)
		if min, max := slabs*row.payload, slabs*(row.payload+perSlabSlack); got < min || got > max {
			t.Errorf("%s: %d slabs charged %d B (%d each) for %d B of cells each, want at most %d over",
				row.name, slabs, got, got/slabs, row.payload, perSlabSlack)
		}
	}

	// The tuple slab is carved inside opTuple, so it is measured through a
	// program: triples divide the slab evenly, and a tuple's Value points
	// at its elements, so the slab is all a tuple costs.
	l, lm := compileAndLoad(t, "Triples", `
let rec go n = if n = 0 then () else (ignore (n, n, n); go (n - 1))
`)
	m = l.Machine()
	goFn, _ := lm.Global("go")
	if tupleSlabSize%3 != 0 {
		t.Fatalf("tupleSlabSize %d: the measurement needs a multiple of 3", tupleSlabSize)
	}
	perTupleSlab := tupleSlabSize / 3
	// One pass fills whole slabs, so the warm-up leaves the last one
	// exactly full and the measured pass starts on a fresh one.
	pass := perTupleSlab * slabs
	args := []Value{nil}
	run := func() {
		for left := pass; left > 0; {
			n := left
			if n > smallIntMax {
				n = smallIntMax / perTupleSlab * perTupleSlab
			}
			args[0] = boxInt(int64(n))
			if _, err := m.InvokeArgs(goFn, args); err != nil {
				t.Fatalf("invoke: %v", err)
			}
			left -= n
		}
	}
	run()
	payload := uint64(slabs * tupleSlabSize * 16)
	got := charged(run)
	if max := payload + slabs*perSlabSlack; got < payload || got > max {
		t.Errorf("tuple slabs: %d slabs charged %d B for %d B of cells, want at most %d over",
			slabs, got, payload, max-payload)
	}
}
