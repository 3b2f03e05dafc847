package vm

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
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
		{"tuple headers", ptrSlabLen * 24, func() {
			for i := 0; i < slabs*ptrSlabLen; i++ {
				m.boxTuple(nil)
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

	// The tuple element slab is carved inside opTuple, so it is measured
	// through a program: triples divide the slab evenly, and the headers
	// they also need are the row above.
	l, lm := compileAndLoad(t, "Triples", `
let rec go n = if n = 0 then () else (ignore (n, n, n); go (n - 1))
`)
	m = l.Machine()
	goFn, _ := lm.Global("go")
	if tupleSlabSize%3 != 0 {
		t.Fatalf("tupleSlabSize %d: the measurement needs a multiple of 3", tupleSlabSize)
	}
	perTupleSlab := tupleSlabSize / 3
	// One pass fills whole slabs of both kinds, so the warm-up leaves both
	// exactly full and the measured pass starts on fresh ones.
	pass := perTupleSlab * ptrSlabLen
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
	tupleSlabs, hdrSlabs := uint64(pass/perTupleSlab), uint64(pass/ptrSlabLen)
	payload := tupleSlabs*tupleSlabSize*16 + hdrSlabs*ptrSlabLen*24
	got := charged(run)
	if max := payload + (tupleSlabs+hdrSlabs)*perSlabSlack; got < payload || got > max {
		t.Errorf("tuple slabs: %d element and %d header slabs charged %d B for %d B of cells, want at most %d over",
			tupleSlabs, hdrSlabs, got, payload, max-payload)
	}
}
