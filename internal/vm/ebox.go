package vm

import (
	"strconv"
	"unsafe"
)

// Slab boxing and the string arena: what a metered switchlet value costs
// the host.
//
// Putting an int64 or string into a Value (interface{}) makes the gc
// toolchain heap-allocate a cell for the datum and point the interface at
// it (runtime.convT64 / convTstring), and building a string (a ^ b,
// string_of_int, String.make) allocates its bytes first. On the forwarding
// path that was one allocation per VM timestamp and per frame argument; on
// the spanning-tree control path it was a hundred per dispatch, nearly all
// of them strings of 1 to 30 bytes that die inside the dispatch that built
// them. The boxers below amortize the cells: values are appended to a slab
// and the interface is assembled to point at the slab cell, so the heap
// sees one allocation per slab instead of one per value. The byte arena
// (Machine.newStr) does the same for string contents: bytes are carved
// from a chunk, written once and published with unsafe.String. Every
// string longer than two bytes that a switchlet builds takes this one path
// (newStr, sealStr); a String.sub view skips the bytes and takes only the
// header cell. There is no runtime-boxed fallback beside it.
//
// A tuple needs no cell: it is a pointer to its elements (*[2]Value,
// *[3]Value or *[4]Value, carved from the machine's tuple slab), and a
// pointer fits the interface's data word as it is.
//
// Process-wide tables need no memory per value at all: every string of at
// most two bytes (shortStr: "", the 256 one-byte strings, and the 65 536
// two-byte ones, whose headers share one 128 KB backing string), and the
// decimal strings of -1..255 (the bundled switchlets' `pkey p =
// string_of_int p` hash keys). Every site that builds a string of at most
// two bytes (^, q.concat_n, String.make, String.sub, string_of_int)
// returns the shared value before touching the arena; be16's `String.make 1 hi ^ String.make
// 1 lo` is the common case. String constants are boxed once per Object
// (Object.strVals), so opConstStr pushes a ready Value.
//
// The switchlet sources are not edited to build fewer strings: their
// Steps and AllocBytes feed virtual time, so they are contract. Only the
// host price of one metered string may move, and it moves here; every
// site charges AllocBytes exactly as before, shared value or not.
//
// Soundness:
//   - Cells and arena bytes are append-only. A slab cell or a carved byte
//     range is written exactly once, before the Value referencing it
//     escapes, and never after; each carve is a full slice expression
//     (capacity == length), so no later carve can alias it. Full slabs and
//     chunks are abandoned to the collector, never recycled. Boxed values
//     therefore stay immutable, exactly like runtime-boxed ones. The
//     short-string tables are written only at init.
//   - The type words are copied from real interface conversions at init,
//     and the data word (and an arena string's data pointer) always points
//     into a live heap object that is also reachable through the boxer or
//     arena (or was stored into the slab with an ordinary barriered
//     write), or into the short-string table, a global, so the collector
//     observes every referenced object through normal channels. The one
//     exception is deliberate: the table's headers hide their data
//     pointers from the collector, and pairBytes keeps those bytes alive.
//   - Layout dependence: this mirrors the gc runtime's two-word eface and
//     string header, and relies on its heap objects never moving. It is
//     not portable to other Go implementations; nothing else in the
//     repository is either (see bridge.frameString).
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
)

func init() {
	var v Value
	v = int64(1) << 40
	int64EfaceTyp = (*eface)(unsafe.Pointer(&v)).typ
	v = "probe"
	stringEfaceTyp = (*eface)(unsafe.Pointer(&v)).typ
}

// Slab lengths. Since Go 1.22 an object of 512 B to 32 KB that holds
// pointers carries an 8-byte malloc header, so a power-of-two payload
// spills into the next size class (128 string headers are charged 2304 B
// for 2048). Pointerful slabs therefore hold one cell fewer; the
// pointer-free int slab and byte chunk have no header and stay round.
// TestSlabsFillTheirSizeClass measures the charge.
const (
	boxerSlabLen = 128 // int64 cells: 1024 B, no header
	ptrSlabLen   = 127 // string headers and refs: 2032+8 B
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

// boxI boxes an int64 through the machine's slab boxer.
func (m *Machine) boxI(n int64) Value { return m.intBox.Box(n) }

const (
	smallIntStrMin = -1
	smallIntStrMax = 255
)

// byteStrs are the 256 one-byte strings and smallIntStrs the decimal
// strings of smallIntStrMin..smallIntStrMax, boxed once for every machine.
// pairStrs are the headers of the 65 536 two-byte strings, indexed by
// their bytes read big-endian, each a view of pairBytes; shortStr boxes
// them without a cell. A header's data word is held as a uintptr so that
// the 1 MB table is pointer-free: the collector never scans it (a
// [1 << 16]string would add about 260 µs to every GC cycle), and
// pairBytes, a global, keeps the bytes every header points at alive.
// Heap objects do not move, so the addresses stay valid.
var (
	byteStrs     [256]Value
	smallIntStrs [smallIntStrMax - smallIntStrMin + 1]Value
	pairBytes    string
	pairStrs     [1 << 16]strHdr
	valEmptyStr  Value = ""
)

// strHdr mirrors the runtime representation of a string.
type strHdr struct {
	data uintptr
	len  int
}

func init() {
	for i := range byteStrs {
		byteStrs[i] = string([]byte{byte(i)})
	}
	for i := range smallIntStrs {
		smallIntStrs[i] = strconv.Itoa(i + smallIntStrMin)
	}
	all := make([]byte, 2*len(pairStrs))
	for i := range pairStrs {
		all[2*i], all[2*i+1] = byte(i>>8), byte(i)
	}
	// all is never written again, so every pair can be a view of it.
	pairBytes = unsafe.String(unsafe.SliceData(all), len(all))
	base := uintptr(unsafe.Pointer(unsafe.StringData(pairBytes)))
	for i := range pairStrs {
		pairStrs[i] = strHdr{data: base + uintptr(2*i), len: 2}
	}
}

// shortStr returns the shared Value of s, which has at most two bytes.
// It never allocates: s may live on the caller's stack.
func shortStr(s string) Value {
	switch len(s) {
	case 0:
		return valEmptyStr
	case 1:
		return byteStrs[s[0]]
	}
	var v Value
	e := (*eface)(unsafe.Pointer(&v))
	e.typ = stringEfaceTyp
	e.data = unsafe.Pointer(&pairStrs[int(s[0])<<8|int(s[1])])
	return v
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
	return m.strBox.Box(unsafe.String(unsafe.SliceData(b), len(b)))
}

// concat returns a ^ b; metering is the caller's.
func (m *Machine) concat(a, b string) Value {
	if len(a)+len(b) <= 2 {
		return shortStr(a + b)
	}
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
	if len(digits) <= 2 {
		return shortStr(string(digits))
	}
	buf := m.newStr(len(digits))
	copy(buf, digits)
	return m.sealStr(buf)
}

// makeStr returns n copies of byte c (String.make).
func (m *Machine) makeStr(n int, c byte) Value {
	if n <= 2 {
		pair := [2]byte{c, c}
		return shortStr(string(pair[:n]))
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
