package vm

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Opcodes of the swl stack machine.
const (
	opConstInt byte = iota
	opConstStr
	opConstBool
	opConstUnit
	opLocalGet
	opLocalSet
	opCaptureGet
	opGlobalGet
	opGlobalSet
	opImportGet
	opClosure
	opCall
	opTailCall
	opReturn
	opJump
	opJumpIfFalse
	opJumpIfTrue
	opPop
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opConcat
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opNot
	opNeg
	opTuple
	opTupleGet
	opRaise
	opPushHandler
	opPopHandler
	opRefGet
	opRefSet
	opNop
	opMax
)

// Quickened opcodes. These never appear on the wire: DecodeObject and
// VerifyObject reject any opcode >= opMax, so a hostile .swo cannot smuggle a
// superinstruction with unchecked operands. They exist only in Chunk.Quick
// code produced by OptimizeObject from already-verified wire code, which is
// why their operands can be trusted by construction. Each carries a step
// weight W equal to the number of wire instructions it replaces, so
// Machine.Steps — and therefore virtual time — is identical at -O0 and -O1.
//
// A quickened frame that hits a case the fast path cannot handle (fuel too
// low to charge a whole superinstruction, a call site whose predicted
// native was rebound, a concat chain with a non-string operand)
// deoptimizes: the frame switches to the naive Code at the exact wire pc
// recorded in quickSrc and replays the sequence instruction by
// instruction, reproducing -O0 traps, steps and stack effects bit for bit.
const (
	// qGetGet: push local A then push local B.
	qGetGet byte = opMax + iota
	// qCmpJf: comparison (B is the wire comparison opcode) followed by
	// jump-if-false with relative offset A. The intermediate bool is never
	// boxed.
	qCmpJf
	// qGGCmpJf: push local, push local, compare, jump-if-false. A is the
	// offset; B packs slot1 | slot2<<12 | cmpOp<<24.
	qGGCmpJf
	// qIncL: local A += B (get, const, add, set) through the tagged slot.
	qIncL
	// qGetFieldSet: local dst = (local src).field — the LetTuple
	// destructuring sequence (get, tuple_get, set). A is src; B packs
	// fieldIdx | dst<<8.
	qGetFieldSet
	// The five specialized calls, in inlinedNatives' row order: an opCall
	// whose callee the optimizer predicted to be that row's native, run
	// through the native's own body. Stack shape is exactly opCall's
	// (callee below args); a mispredicted callee deopts to the wire call.
	// A is argc, and for qStrSub packs argc | icIdx<<8: its result is
	// boxed through a 2-way inline cache.
	qStrSub
	qStrGet
	qHtblFind
	qHtblMem
	qHtblAdd
	// qConcatN: A (2..255) consecutive concats of a right-nested a ^ b ^
	// ... chain, W = A. Pops A+1 strings and pushes their concatenation,
	// built once; AllocBytes is metered as the A binary concats would
	// meter it. A non-string operand deopts to the wire concats.
	qConcatN
	qMax
)

var opNames = [...]string{
	"const_int", "const_str", "const_bool", "const_unit",
	"local_get", "local_set", "capture_get", "global_get", "global_set",
	"import_get", "closure", "call", "tail_call", "return",
	"jump", "jump_if_false", "jump_if_true", "pop",
	"add", "sub", "mul", "div", "mod", "concat",
	"eq", "ne", "lt", "le", "gt", "ge", "not", "neg",
	"tuple", "tuple_get", "raise", "push_handler", "pop_handler",
	"ref_get", "ref_set", "nop",
}

// qNames names the quickened opcodes, indexed by op - opMax.
var qNames = [qMax - opMax]string{
	"q.get_get", "q.cmp_jf", "q.gg_cmp_jf", "q.inc_local", "q.get_field_set",
	"q.str_sub", "q.str_get", "q.htbl_find", "q.htbl_mem", "q.htbl_add",
	"q.concat_n",
}

// opName renders any opcode, wire or quickened, width-safely.
func opName(op byte) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	if op >= opMax && op < qMax {
		return qNames[op-opMax]
	}
	return fmt.Sprintf("op%d", op)
}

// Instr is one decoded instruction. Operand meaning depends on Op:
//   - opConstInt: A is the literal;
//   - opConstStr: A indexes the string pool;
//   - opLocal*/opCapture*/opGlobal*/opImportGet: A is the slot index;
//   - opClosure: A is the chunk index, B indexes the capture-spec table;
//   - opCall/opTailCall/opTuple/opTupleGet: A is the count/index;
//   - opJump*/opPushHandler: A is a relative offset from the next
//     instruction.
type Instr struct {
	Op byte
	// W is the step weight: how many wire instructions this one accounts
	// for. Wire code always has weight 1 (the interpreter treats 0 as 1,
	// so hand-built test chunks need not set it); quickened
	// superinstructions carry the weight of the sequence they replace so
	// fuel and Machine.Steps — and with them virtual time — are identical
	// with and without optimization. W is never serialized: it is derived
	// by the optimizer.
	W byte
	A int64
	B int32
}

func (i Instr) String() string {
	return fmt.Sprintf("%s %d %d", opName(i.Op), i.A, i.B)
}

// Capture kinds for closure capture specs.
const (
	capLocal     byte = 0 // capture current frame's local slot
	capCapture   byte = 1 // re-capture from current closure's environment
	capSelf      byte = 2 // the closure being constructed (let rec)
	capFrameSelf byte = 3 // the executing frame's own closure (recursion via nesting)
)

// CaptureRef describes where a closure capture comes from.
type CaptureRef struct {
	Kind byte
	Idx  uint16
}

// Chunk is one compiled function body.
//
// Code is the wire bytecode: always present, always correct, and the only
// form that Encode serializes — the .swo byte stream is identical at every
// optimization level, so object transfer over the simulated net (and hence
// every virtual-time fingerprint) is unaffected by quickening. Quick, when
// non-nil, is the superinstruction form the interpreter prefers.
type Chunk struct {
	Name    string // diagnostic name
	NParams int
	NLocals int // including params
	Code    []Instr
	// Quick is the quickened code produced by OptimizeObject; nil means
	// interpret Code. Never serialized.
	Quick []Instr
	// quickSrc maps each Quick pc to the wire pc of the first instruction
	// it covers, so a frame can deoptimize mid-flight to the exact naive
	// position.
	quickSrc []int32
}

// ImportRef records a dependency on another module: the names used and the
// MD5 digest of the signature the module was compiled against. At link
// time the digest must match the provider's export digest (paper §5.1:
// "a link time error would result because the signatures would not match").
type ImportRef struct {
	Module string
	Digest [16]byte
	Names  []string
}

// Object is a compiled switchlet: the unit of transmission and dynamic
// loading (the paper's Caml bytecode file).
type Object struct {
	ModName string
	Imports []ImportRef
	// ExportText is the canonical signature text; ExportDigest its MD5.
	ExportText   string
	ExportDigest [16]byte
	StrPool      []string
	Chunks       []*Chunk
	CapSpecs     [][]CaptureRef
	// NGlobals is the number of module-level slots.
	NGlobals int
	// Init is the chunk index of the module initialization code (the
	// "top-level forms" that run at load and perform registration).
	Init int
	// GlobalNames maps export names to global slots.
	GlobalNames map[string]int

	// NICSites is the number of inline-cache sites the optimizer assigned
	// across all chunks; each LinkedModule allocates that many cache
	// entries so Object and Chunk stay immutable and shareable between
	// bridges. In-memory only, never serialized.
	NICSites int
	// optOnce makes OptimizeObject idempotent and safe on objects shared
	// between bridges (the process-wide compiled-object cache).
	optOnce sync.Once
	// strVals is StrPool boxed once for every machine that runs the object,
	// so opConstStr pushes a ready Value; the loader fills it before the
	// first LinkedModule exists. In-memory only, never serialized.
	strOnce sync.Once
	strVals []Value

	// verifyOnce caches the static verification verdict (see static.go):
	// objects are immutable once shared between bridges, so one proof
	// serves every install.
	verifyOnce sync.Once
	verifyInfo *VerifyInfo
	verifyErr  error
}

// SigDigest computes the MD5 digest of a signature's canonical text,
// cached on the signature (signatures are immutable once in use).
func SigDigest(sig *Signature) [16]byte {
	sig.digestOnce.Do(func() { sig.digest = md5.Sum([]byte(sig.Canonical())) })
	return sig.digest
}

// ExportSignature reconstructs the Signature from the object's canonical
// export text.
func (o *Object) ExportSignature() (*Signature, error) {
	return ParseSignatureText(o.ExportText)
}

// ParseSignatureText parses the canonical "module M\nval n : t\n..." form.
func ParseSignatureText(text string) (*Signature, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "module ") {
		return nil, errors.New("vm: malformed signature text")
	}
	sig := NewSignature(strings.TrimPrefix(lines[0], "module "))
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		if !strings.HasPrefix(ln, "val ") {
			return nil, fmt.Errorf("vm: malformed signature line %q", ln)
		}
		rest := strings.TrimPrefix(ln, "val ")
		i := strings.Index(rest, " : ")
		if i < 0 {
			return nil, fmt.Errorf("vm: malformed signature line %q", ln)
		}
		sch, err := ParseType(rest[i+3:])
		if err != nil {
			return nil, err
		}
		// Quantify all variables: canonical text loses level structure,
		// and everything exported is fully determined or quantified.
		markGeneric(sch.Body)
		sig.Add(rest[:i], sch)
	}
	return sig, nil
}

func markGeneric(t Type) {
	t = prune(t)
	switch v := t.(type) {
	case *TVar:
		v.Generic = true
	case *TFun:
		markGeneric(v.Arg)
		markGeneric(v.Ret)
	case *TCon:
		for _, a := range v.Args {
			markGeneric(a)
		}
	}
}

// --- binary encoding -------------------------------------------------------

var objMagic = []byte("SWO1")

// ErrBadObject reports a malformed or corrupt object file.
var ErrBadObject = errors.New("vm: malformed object file")

type objWriter struct{ buf bytes.Buffer }

func (w *objWriter) u8(v byte) { w.buf.WriteByte(v) }
func (w *objWriter) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}
func (w *objWriter) i64(v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	w.buf.Write(b[:])
}
func (w *objWriter) str(s string)   { w.u32(uint32(len(s))); w.buf.WriteString(s) }
func (w *objWriter) bytes(b []byte) { w.buf.Write(b) }

// Encode serializes the object to the on-the-wire .swo format.
func (o *Object) Encode() []byte {
	w := &objWriter{}
	w.bytes(objMagic)
	w.str(o.ModName)
	w.u32(uint32(len(o.Imports)))
	for _, im := range o.Imports {
		w.str(im.Module)
		w.bytes(im.Digest[:])
		w.u32(uint32(len(im.Names)))
		for _, n := range im.Names {
			w.str(n)
		}
	}
	w.str(o.ExportText)
	w.bytes(o.ExportDigest[:])
	w.u32(uint32(len(o.StrPool)))
	for _, s := range o.StrPool {
		w.str(s)
	}
	w.u32(uint32(len(o.CapSpecs)))
	for _, spec := range o.CapSpecs {
		w.u32(uint32(len(spec)))
		for _, c := range spec {
			w.u8(c.Kind)
			w.u32(uint32(c.Idx))
		}
	}
	w.u32(uint32(len(o.Chunks)))
	for _, c := range o.Chunks {
		w.str(c.Name)
		w.u32(uint32(c.NParams))
		w.u32(uint32(c.NLocals))
		w.u32(uint32(len(c.Code)))
		for _, ins := range c.Code {
			w.u8(ins.Op)
			w.i64(ins.A)
			w.u32(uint32(ins.B))
		}
	}
	w.u32(uint32(o.NGlobals))
	w.u32(uint32(o.Init))
	w.u32(uint32(len(o.GlobalNames)))
	for _, name := range sortedKeys(o.GlobalNames) {
		w.str(name)
		w.u32(uint32(o.GlobalNames[name]))
	}
	return w.buf.Bytes()
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { //ab:mapiter-ok keys are sorted below before use
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; maps are small
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

type objReader struct {
	b   []byte
	off int
	err error
}

func (r *objReader) fail() {
	if r.err == nil {
		r.err = ErrBadObject
	}
}

func (r *objReader) u8() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *objReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *objReader) i64() int64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return int64(v)
}

func (r *objReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *objReader) digest() (d [16]byte) {
	if r.err != nil || r.off+16 > len(r.b) {
		r.fail()
		return
	}
	copy(d[:], r.b[r.off:])
	r.off += 16
	return
}

// count reads a u32 length and bounds it: every element occupies at least
// min bytes, so a length claiming more elements than remaining bytes allow
// is corrupt, not a cause for a giant allocation.
func (r *objReader) count(min int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if min > 0 && n > (len(r.b)-r.off)/min+1 {
		r.fail()
		return 0
	}
	return n
}

// DecodeObject parses a .swo object file.
func DecodeObject(b []byte) (*Object, error) {
	if len(b) < 4 || !bytes.Equal(b[:4], objMagic) {
		return nil, ErrBadObject
	}
	r := &objReader{b: b, off: 4}
	o := &Object{GlobalNames: map[string]int{}}
	o.ModName = r.str()
	nImp := r.count(4)
	for i := 0; i < nImp && r.err == nil; i++ {
		var im ImportRef
		im.Module = r.str()
		im.Digest = r.digest()
		nn := r.count(4)
		for j := 0; j < nn && r.err == nil; j++ {
			im.Names = append(im.Names, r.str())
		}
		o.Imports = append(o.Imports, im)
	}
	o.ExportText = r.str()
	o.ExportDigest = r.digest()
	nStr := r.count(4)
	for i := 0; i < nStr && r.err == nil; i++ {
		o.StrPool = append(o.StrPool, r.str())
	}
	nSpec := r.count(4)
	for i := 0; i < nSpec && r.err == nil; i++ {
		nc := r.count(5)
		spec := make([]CaptureRef, 0, nc)
		for j := 0; j < nc && r.err == nil; j++ {
			k := r.u8()
			idx := r.u32()
			if k > capFrameSelf || idx > 0xffff {
				r.fail()
				break
			}
			spec = append(spec, CaptureRef{Kind: k, Idx: uint16(idx)})
		}
		o.CapSpecs = append(o.CapSpecs, spec)
	}
	nChunks := r.count(16)
	for i := 0; i < nChunks && r.err == nil; i++ {
		c := &Chunk{}
		c.Name = r.str()
		c.NParams = int(r.u32())
		c.NLocals = int(r.u32())
		nIns := r.count(13)
		for j := 0; j < nIns && r.err == nil; j++ {
			op := r.u8()
			if op >= opMax {
				r.fail()
				break
			}
			a := r.i64()
			bv := int32(r.u32())
			c.Code = append(c.Code, Instr{Op: op, A: a, B: bv})
		}
		o.Chunks = append(o.Chunks, c)
	}
	o.NGlobals = int(r.u32())
	o.Init = int(r.u32())
	nG := r.count(8)
	for i := 0; i < nG && r.err == nil; i++ {
		name := r.str()
		slot := int(r.u32())
		o.GlobalNames[name] = slot
	}
	if r.err != nil {
		return nil, r.err
	}
	if o.Init < 0 || o.Init >= len(o.Chunks) {
		return nil, ErrBadObject
	}
	// Verify the export digest binds the export text.
	if md5.Sum([]byte(o.ExportText)) != o.ExportDigest {
		return nil, fmt.Errorf("vm: export signature digest mismatch in %s", o.ModName)
	}
	return o, nil
}
