package vm

import (
	"strconv"
	"unsafe"
)

// Slab boxing and the string arena: what a metered switchlet value costs
// the host.
//
// Putting an int64, string or Tuple into a Value (interface{}) makes the
// gc toolchain heap-allocate a cell for the datum and point the interface
// at it (runtime.convT64 / convTstring / convTslice), and building a string
// (a ^ b, string_of_int, String.make) allocates its bytes first. On the
// forwarding path that was one allocation per VM timestamp, per frame
// argument and per constructed tuple; on the spanning-tree control path it
// was a hundred per dispatch, nearly all of them strings of 1 to 30 bytes
// that die inside the dispatch that built them. The boxers below amortize
// the cells: values are appended to a slab and the interface is assembled
// to point at the slab cell, so the heap sees one allocation per slab
// instead of one per value. The byte arena (Machine.newStr) does the same
// for string contents: bytes are carved from a chunk, written once and
// published with unsafe.String. Every string a switchlet builds takes this
// one path (newStr, sealStr); a String.sub view skips the bytes and takes
// only the header cell. There is no runtime-boxed fallback beside it.
//
// Two process-wide tables need no memory at all: the 256 one-byte strings
// (String.make 1 b — every be16/be32 of the bundled switchlets) and the
// decimal strings of -1..255 (their `pkey p = string_of_int p` hash keys),
// pre-boxed at init like smallInts. String constants are boxed once per
// Object (Object.strVals), so opConstStr pushes a ready Value.
//
// The switchlet sources are not edited to build fewer strings: their
// Steps and AllocBytes feed virtual time, so they are contract. Only the
// host price of one metered string may move, and it moves here.
//
// Soundness:
//   - Cells and arena bytes are append-only. A slab cell or a carved byte
//     range is written exactly once, before the Value referencing it
//     escapes, and never after; each carve is a full slice expression
//     (capacity == length), so no later carve can alias it. Full slabs and
//     chunks are abandoned to the collector, never recycled. Boxed values
//     therefore stay immutable, exactly like runtime-boxed ones.
//   - The type words are copied from real interface conversions at init,
//     and the data word (and an arena string's data pointer) always points
//     into a live heap object that is also reachable through the boxer or
//     arena (or was stored into the slab with an ordinary barriered
//     write), so the collector observes every referenced object through
//     normal channels.
//   - Layout dependence: this mirrors the gc runtime's two-word eface.
//     It is not portable to other Go implementations; nothing else in
//     the repository is either (see bridge.frameString).
//
// Retention is bounded: a long-lived value (a `heard` vector kept in a
// Hashtbl, a ref cell in a global) pins the slab its cell sits in and,
// for a string, the chunk its bytes sit in — a few KB, plus whatever the
// slab's other cells still reference. That is the shape String.sub results
// always had: each pins the whole frame buffer it is a view of.
//
// Boxers and arenas are single-goroutine, like the Machine that owns them
// (shards own disjoint machines). None of this affects metered
// Steps/AllocBytes — only Go-heap allocation counts.

// eface mirrors the runtime representation of an empty interface.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

var (
	int64EfaceTyp  unsafe.Pointer
	stringEfaceTyp unsafe.Pointer
	tupleEfaceTyp  unsafe.Pointer
)

func init() {
	var v Value
	v = int64(1) << 40
	int64EfaceTyp = (*eface)(unsafe.Pointer(&v)).typ
	v = "probe"
	stringEfaceTyp = (*eface)(unsafe.Pointer(&v)).typ
	v = Tuple(nil)
	tupleEfaceTyp = (*eface)(unsafe.Pointer(&v)).typ
}

// Slab lengths. Since Go 1.22 an object of 512 B to 32 KB that holds
// pointers carries an 8-byte malloc header, so a power-of-two payload
// spills into the next size class (128 string headers are charged 2304 B
// for 2048). Pointerful slabs therefore hold one cell fewer; the
// pointer-free int slab and byte chunk have no header and stay round.
// TestSlabsFillTheirSizeClass measures the charge.
const (
	boxerSlabLen = 128 // int64 cells: 1024 B, no header
	ptrSlabLen   = 127 // string headers and refs: 2032+8 B; tuple headers: 3048+8 B
	strChunkLen  = 2048
)

// IntBoxer boxes int64 Values with amortized allocation. Values inside
// the small-int cache are returned from it directly, as boxInt does.
type IntBoxer struct{ slab []int64 }

// Box returns n as a Value.
func (b *IntBoxer) Box(n int64) Value {
	if n >= smallIntMin && n <= smallIntMax {
		return smallInts[n-smallIntMin]
	}
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]int64, 0, boxerSlabLen)
	}
	b.slab = append(b.slab, n)
	var v Value
	e := (*eface)(unsafe.Pointer(&v))
	e.typ = int64EfaceTyp
	e.data = unsafe.Pointer(&b.slab[len(b.slab)-1])
	return v
}

// StrBoxer boxes string Values with amortized allocation of the string
// headers (the bytes themselves are whatever the string already points
// at).
type StrBoxer struct{ slab []string }

// Box returns s as a Value.
func (b *StrBoxer) Box(s string) Value {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]string, 0, ptrSlabLen)
	}
	b.slab = append(b.slab, s)
	var v Value
	e := (*eface)(unsafe.Pointer(&v))
	e.typ = stringEfaceTyp
	e.data = unsafe.Pointer(&b.slab[len(b.slab)-1])
	return v
}

// boxTuple boxes a tuple header into a Value using the machine's header
// slab; the element storage is the caller's (usually the tuple slab).
func (m *Machine) boxTuple(t Tuple) Value {
	if len(m.tupleHdrSlab) == cap(m.tupleHdrSlab) {
		m.tupleHdrSlab = make([]Tuple, 0, ptrSlabLen)
	}
	m.tupleHdrSlab = append(m.tupleHdrSlab, t)
	var v Value
	e := (*eface)(unsafe.Pointer(&v))
	e.typ = tupleEfaceTyp
	e.data = unsafe.Pointer(&m.tupleHdrSlab[len(m.tupleHdrSlab)-1])
	return v
}

// boxI boxes an int64 through the machine's slab boxer.
func (m *Machine) boxI(n int64) Value { return m.intBox.Box(n) }

const (
	smallIntStrMin = -1
	smallIntStrMax = 255
)

// byteStrs are the 256 one-byte strings and smallIntStrs the decimal
// strings of smallIntStrMin..smallIntStrMax, boxed once for every machine.
var (
	byteStrs     [256]Value
	smallIntStrs [smallIntStrMax - smallIntStrMin + 1]Value
	valEmptyStr  Value = ""
)

func init() {
	for i := range byteStrs {
		byteStrs[i] = string([]byte{byte(i)})
	}
	for i := range smallIntStrs {
		smallIntStrs[i] = strconv.Itoa(i + smallIntStrMin)
	}
}

// newStr carves n writable bytes for a string under construction. The
// caller fills them and publishes them with sealStr before anything else
// can see them. Strings above a quarter chunk get their own allocation so
// one long frame image cannot waste most of a chunk.
func (m *Machine) newStr(n int) []byte {
	if n > strChunkLen/4 {
		return make([]byte, n)
	}
	if n > cap(m.strArena)-len(m.strArena) {
		m.strArena = make([]byte, 0, strChunkLen)
	}
	off := len(m.strArena)
	m.strArena = m.strArena[:off+n]
	return m.strArena[off : off+n : off+n]
}

// sealStr publishes bytes from newStr as an immutable boxed string.
func (m *Machine) sealStr(b []byte) Value {
	if len(b) == 0 {
		return valEmptyStr
	}
	return m.strBox.Box(unsafe.String(unsafe.SliceData(b), len(b)))
}

// concat returns a ^ b; metering is the caller's.
func (m *Machine) concat(a, b string) Value {
	buf := m.newStr(len(a) + len(b))
	copy(buf[copy(buf, a):], b)
	return m.sealStr(buf)
}

// strOfInt returns the decimal string of x (string_of_int).
func (m *Machine) strOfInt(x int64) Value {
	if x >= smallIntStrMin && x <= smallIntStrMax {
		return smallIntStrs[x-smallIntStrMin]
	}
	var tmp [20]byte // len("-9223372036854775808")
	digits := strconv.AppendInt(tmp[:0], x, 10)
	buf := m.newStr(len(digits))
	copy(buf, digits)
	return m.sealStr(buf)
}

// makeStr returns n copies of byte c (String.make).
func (m *Machine) makeStr(n int, c byte) Value {
	if n == 1 {
		return byteStrs[c]
	}
	buf := m.newStr(n)
	for i := range buf {
		buf[i] = c
	}
	return m.sealStr(buf)
}

// newRef returns a fresh reference cell holding v, carved from the
// machine's ref slab.
func (m *Machine) newRef(v Value) *Ref {
	if len(m.refSlab) == cap(m.refSlab) {
		m.refSlab = make([]Ref, 0, ptrSlabLen)
	}
	m.refSlab = append(m.refSlab, Ref{V: v})
	return &m.refSlab[len(m.refSlab)-1]
}
