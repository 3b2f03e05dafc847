package vm

// Load-time bytecode verification (the static prong of the paper's safety
// argument: code is checked before it runs, not trapped after).
//
// VerifyObject is an abstract interpreter over chunk bytecode. Per chunk it
// proves, by fixed-point dataflow:
//
//   - control-flow integrity: every jump (wire or quickened, including the
//     deopt source-pc map) lands on an instruction boundary inside the
//     chunk, and no reachable path falls off the end;
//   - stack-effect soundness: the operand-stack depth at every pc is a
//     single well-defined value — join points with mismatched depths,
//     underflow, and implausible growth are rejected;
//   - type soundness: no opcode is applied to an operand the dataflow
//     pinned to a definite, incompatible constructor;
//   - closure-capture integrity: capture specs and opCaptureGet indices
//     are bounded by the environment every creation site actually builds.
//
// The abstract domain is the small type lattice of infer.go's ground
// constructors (TInt/TString/TBool/TUnit plus tuple/fun/ref) with a top
// element: joins that disagree go to top, so the pass terminates and a
// "provably wrong" verdict is exactly that — any value the dataflow cannot
// pin stays top and is left to the interpreter's runtime guards.
//
// Verification is whole-object: unreachable chunks are still checked, and
// reachability (chunks from the init chunk via opClosure, import slots from
// reachable chunks) is reported in VerifyInfo so the capability layer
// (internal/vm/verify) can prove grant coverage statically.

import (
	"fmt"
)

// Verification failure kinds, one per distinct proof obligation. Each
// hostile-object class maps to its own kind so rejections are diagnosable.
const (
	VerifyBadOpcode     = "bad-opcode"      // opcode outside the wire (or quick) set
	VerifyBadOperand    = "bad-operand"     // operand indexes out of a pool/slot table
	VerifyBadJump       = "bad-jump"        // jump target outside the chunk
	VerifyFallOff       = "fall-off"        // a reachable path runs past the last instruction
	VerifyUnderflow     = "stack-underflow" // an op consumes more than the stack holds
	VerifyOverflow      = "stack-overflow"  // implausible operand-stack growth
	VerifyDepthMismatch = "depth-mismatch"  // join point with two different stack depths
	VerifyTypeConfusion = "type-confusion"  // an op applied to a provably wrong type
	VerifyBadCapture    = "bad-capture"     // capture spec or opCaptureGet out of range
	VerifyQuickMap      = "quick-map"       // deopt source map malformed
	VerifyQuickWeight   = "quick-weight"    // step weights don't conserve wire steps
	VerifyStructure     = "structure"       // malformed object-level tables
)

// VerifyError is a typed verification rejection: which module, chunk and pc
// failed which proof, precisely enough for a corpus test to assert on.
type VerifyError struct {
	Module string
	Chunk  int
	Name   string // chunk name, when known
	PC     int    // -1 when the failure is not tied to one instruction
	Quick  bool   // failure is in the quickened stream, not the wire code
	Kind   string
	Msg    string
}

func (e *VerifyError) Error() string {
	where := fmt.Sprintf("chunk %d", e.Chunk)
	if e.Name != "" {
		where += " (" + e.Name + ")"
	}
	if e.Quick {
		where += " [quick]"
	}
	if e.PC >= 0 {
		where += fmt.Sprintf(" pc %d", e.PC)
	}
	return fmt.Sprintf("vm: verify %s: %s: %s: %s", e.Module, where, e.Kind, e.Msg)
}

// VerifyInfo summarizes a successful verification: per-chunk maximum
// operand depths and the reachability facts the capability layer consumes.
type VerifyInfo struct {
	// ChunkDepth is the proven maximum operand-stack depth per chunk.
	ChunkDepth []int
	// MaxDepth is the maximum over all chunks.
	MaxDepth int
	// ReachableChunks marks chunks reachable from the init chunk through
	// opClosure construction edges.
	ReachableChunks []bool
	// ReachableSlots marks flattened import slots referenced by reachable
	// chunks (index space of opImportGet).
	ReachableSlots []bool
	// ReachableModules is the sorted set of imported module names covering
	// the reachable slots — the set a manifest grant must dominate.
	ReachableModules []string
	// QuickChecked records that a quickened stream was present and passed.
	QuickChecked bool
}

// maxVerifyDepth bounds the proven operand depth; deeper chunks are
// implausible for real code and rejected as overflow. The bound is
// deliberately tight: the dataflow clones one abstract state per pc, so a
// hostile straight-line chunk costs O(len(code) * depth) — a small bound
// keeps verification of garbage as cheap as verification of real code.
const maxVerifyDepth = 1 << 12

// VerifyObject runs the full static check. The result is cached: objects
// are immutable once shared between bridges, so one proof serves every
// install.
func VerifyObject(o *Object) (*VerifyInfo, error) {
	o.verifyOnce.Do(func() { o.verifyInfo, o.verifyErr = verifyObject(o) })
	return o.verifyInfo, o.verifyErr
}

func verifyObject(o *Object) (*VerifyInfo, error) {
	if err := verifyTables(o); err != nil {
		return nil, err
	}
	caps := captureEnvs(o)
	if err := verifyCaptures(o, caps); err != nil {
		return nil, err
	}
	info := &VerifyInfo{
		ChunkDepth:      make([]int, len(o.Chunks)),
		ReachableChunks: make([]bool, len(o.Chunks)),
		ReachableSlots:  make([]bool, importSlotCount(o)),
	}
	for ci, c := range o.Chunks {
		if err := verifyChunkMeta(o, ci, c); err != nil {
			return nil, err
		}
		depth, err := flowChunk(o, ci, c, c.Code, false, caps[ci])
		if err != nil {
			return nil, err
		}
		info.ChunkDepth[ci] = depth
		if depth > info.MaxDepth {
			info.MaxDepth = depth
		}
		if c.Quick != nil {
			if err := verifyQuickMap(o, ci, c); err != nil {
				return nil, err
			}
			if _, err := flowChunk(o, ci, c, c.Quick, true, caps[ci]); err != nil {
				return nil, err
			}
			info.QuickChecked = true
		}
	}
	reachability(o, info)
	return info, nil
}

// importSlotCount is the flattened opImportGet index space.
func importSlotCount(o *Object) int {
	n := 0
	for _, im := range o.Imports {
		n += len(im.Names)
	}
	return n
}

// ImportSlotNames flattens the import table into per-slot "Module.name"
// strings, the index space opImportGet operands live in.
func (o *Object) ImportSlotNames() []string {
	out := make([]string, 0, importSlotCount(o))
	for _, im := range o.Imports {
		for _, n := range im.Names {
			out = append(out, im.Module+"."+n)
		}
	}
	return out
}

// verifyTables checks the object-level tables (the part of the proof that
// is independent of any one chunk).
func verifyTables(o *Object) error {
	errAt := func(kind, msg string, args ...any) error {
		return &VerifyError{Module: o.ModName, Chunk: -1, PC: -1, Kind: kind, Msg: fmt.Sprintf(msg, args...)}
	}
	if len(o.Chunks) == 0 {
		return errAt(VerifyStructure, "object has no chunks")
	}
	if o.Init < 0 || o.Init >= len(o.Chunks) {
		return errAt(VerifyStructure, "init chunk %d out of range", o.Init)
	}
	if o.NGlobals < 0 || o.NGlobals > 1<<20 {
		return errAt(VerifyStructure, "implausible global count %d", o.NGlobals)
	}
	// Sorted so a multi-error object always yields the same VerifyError.
	for _, name := range sortedKeys(o.GlobalNames) {
		if slot := o.GlobalNames[name]; slot < 0 || slot >= o.NGlobals {
			return errAt(VerifyStructure, "export %s: global slot %d out of range", name, slot)
		}
	}
	if o.NICSites < 0 || o.NICSites > 1<<20 {
		return errAt(VerifyStructure, "implausible inline-cache site count %d", o.NICSites)
	}
	return nil
}

// verifyChunkMeta checks per-chunk frame shape.
func verifyChunkMeta(o *Object, ci int, c *Chunk) error {
	errAt := func(kind, msg string, args ...any) error {
		return &VerifyError{Module: o.ModName, Chunk: ci, Name: c.Name, PC: -1, Kind: kind, Msg: fmt.Sprintf(msg, args...)}
	}
	if c.NParams < 0 || c.NParams > 255 {
		return errAt(VerifyStructure, "implausible parameter count %d", c.NParams)
	}
	if c.NLocals < 0 || c.NLocals > 1<<16 {
		return errAt(VerifyStructure, "implausible local count %d", c.NLocals)
	}
	if c.NParams > c.NLocals {
		return errAt(VerifyStructure, "params %d exceed locals %d", c.NParams, c.NLocals)
	}
	return nil
}

// captureEnvs computes, per chunk, the smallest closure environment any
// creation site builds for it: -1 when no opClosure constructs the chunk
// (the init chunk is "created" with an empty environment by the loader).
// opCaptureGet and capCapture indices must stay below this bound, which is
// exactly the interpreter's runtime capture check made static.
func captureEnvs(o *Object) []int {
	caps := make([]int, len(o.Chunks))
	for i := range caps {
		caps[i] = -1
	}
	if o.Init >= 0 && o.Init < len(caps) {
		caps[o.Init] = 0
	}
	for _, c := range o.Chunks {
		for _, ins := range c.Code {
			if ins.Op != opClosure {
				continue
			}
			tgt := int(ins.A)
			spec := int(ins.B)
			if tgt < 0 || tgt >= len(o.Chunks) || spec < 0 || spec >= len(o.CapSpecs) {
				continue // rejected later by the structural pass
			}
			n := len(o.CapSpecs[spec])
			if caps[tgt] < 0 || n < caps[tgt] {
				caps[tgt] = n
			}
		}
	}
	return caps
}

// verifyCaptures checks every closure-creation site: the spec must exist
// and each capture must name a slot the creating frame actually has.
func verifyCaptures(o *Object, caps []int) error {
	for ci, c := range o.Chunks {
		for pc, ins := range c.Code {
			if ins.Op != opClosure {
				continue
			}
			errAt := func(kind, msg string, args ...any) error {
				return &VerifyError{Module: o.ModName, Chunk: ci, Name: c.Name, PC: pc, Kind: kind, Msg: fmt.Sprintf(msg, args...)}
			}
			if ins.A < 0 || int(ins.A) >= len(o.Chunks) {
				return errAt(VerifyBadOperand, "closure chunk %d out of range", ins.A)
			}
			if ins.B < 0 || int(ins.B) >= len(o.CapSpecs) {
				return errAt(VerifyBadOperand, "capture spec %d out of range", ins.B)
			}
			for i, cr := range o.CapSpecs[ins.B] {
				switch cr.Kind {
				case capLocal:
					if int(cr.Idx) >= c.NLocals {
						return errAt(VerifyBadCapture, "capture %d reads local %d past frame locals %d", i, cr.Idx, c.NLocals)
					}
				case capCapture:
					if caps[ci] >= 0 && int(cr.Idx) >= caps[ci] {
						return errAt(VerifyBadCapture, "capture %d re-captures slot %d past environment %d", i, cr.Idx, caps[ci])
					}
				case capSelf, capFrameSelf:
					// No operand to check.
				default:
					return errAt(VerifyBadCapture, "unknown capture kind %d", cr.Kind)
				}
			}
		}
	}
	return nil
}

// verifyQuickMap checks the deopt source map and step-weight conservation:
// every quick pc must resume at a strictly increasing wire pc, and the
// summed weights must equal the wire instruction count — the invariant that
// makes Machine.Steps (and with it virtual time) identical at -O0 and -O1.
func verifyQuickMap(o *Object, ci int, c *Chunk) error {
	errAt := func(kind, msg string, args ...any) error {
		return &VerifyError{Module: o.ModName, Chunk: ci, Name: c.Name, PC: -1, Quick: true, Kind: kind, Msg: fmt.Sprintf(msg, args...)}
	}
	if len(c.quickSrc) != len(c.Quick) {
		return errAt(VerifyQuickMap, "source map has %d entries for %d instructions", len(c.quickSrc), len(c.Quick))
	}
	prev := int32(-1)
	for i, src := range c.quickSrc {
		if src < 0 || int(src) >= len(c.Code) || src <= prev {
			return errAt(VerifyQuickMap, "entry %d resumes at wire pc %d (prev %d, wire len %d)", i, src, prev, len(c.Code))
		}
		prev = src
	}
	sum := 0
	for _, ins := range c.Quick {
		sum += weightOf(ins)
	}
	if sum != len(c.Code) {
		return errAt(VerifyQuickWeight, "quick weights sum to %d, wire code has %d instructions", sum, len(c.Code))
	}
	return nil
}

// reachability marks chunks reachable from init via opClosure and the
// import slots those chunks read, then folds slots into module names.
func reachability(o *Object, info *VerifyInfo) {
	work := []int{o.Init}
	info.ReachableChunks[o.Init] = true
	for len(work) > 0 {
		ci := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ins := range o.Chunks[ci].Code {
			switch ins.Op {
			case opClosure:
				if tgt := int(ins.A); tgt >= 0 && tgt < len(o.Chunks) && !info.ReachableChunks[tgt] {
					info.ReachableChunks[tgt] = true
					work = append(work, tgt)
				}
			case opImportGet:
				if s := int(ins.A); s >= 0 && s < len(info.ReachableSlots) {
					info.ReachableSlots[s] = true
				}
			}
		}
	}
	seen := map[string]bool{}
	slot := 0
	for _, im := range o.Imports {
		for range im.Names {
			if info.ReachableSlots[slot] && !seen[im.Module] {
				seen[im.Module] = true
				info.ReachableModules = append(info.ReachableModules, im.Module)
			}
			slot++
		}
	}
	// Insertion sort, matching sortedKeys: the set is tiny.
	ms := info.ReachableModules
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j] < ms[j-1]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// --- the abstract interpreter ----------------------------------------------

// vtype is the abstract value lattice: the ground constructors of the
// infer.go type system (TInt, TString, TBool, TUnit and the tuple/fun/ref
// shapes) under a single top element vAny. Join of unequal types is vAny.
type vtype uint8

const (
	vAny vtype = iota
	vInt
	vStr
	vBool
	vUnit
	vTuple
	vFun
	vRef
)

func (t vtype) String() string {
	switch t {
	case vInt:
		return TInt.Name
	case vStr:
		return TString.Name
	case vBool:
		return TBool.Name
	case vUnit:
		return TUnit.Name
	case vTuple:
		return "tuple"
	case vFun:
		return "fun"
	case vRef:
		return "ref"
	}
	return "any"
}

func joinT(a, b vtype) vtype {
	if a == b {
		return a
	}
	return vAny
}

// notInt / notBool / notStr / notTuple / notCallable are the "provably
// wrong" predicates: true only when the dataflow pinned a definite,
// incompatible constructor. vAny never proves anything.
func notInt(t vtype) bool  { return t != vAny && t != vInt }
func notBool(t vtype) bool { return t != vAny && t != vBool }
func notStr(t vtype) bool  { return t != vAny && t != vStr }
func notTuple(t vtype) bool {
	return t != vAny && t != vTuple
}
func notCallable(t vtype) bool {
	// Partials and natives flow as vAny; only a definite non-function
	// constructor is provably uncallable.
	return t != vAny && t != vFun
}

// absState is the abstract machine state at one pc: the operand stack
// (exact depth, per-entry type) and the local slots.
type absState struct {
	stack  []vtype
	locals []vtype
}

func (s *absState) clone() *absState {
	n := &absState{
		stack:  append([]vtype(nil), s.stack...),
		locals: append([]vtype(nil), s.locals...),
	}
	return n
}

// join merges src into dst, reporting whether dst changed. Unequal depths
// are a verification failure, surfaced by the caller.
func (s *absState) join(src *absState) (changed bool) {
	for i, t := range src.stack {
		if j := joinT(s.stack[i], t); j != s.stack[i] {
			s.stack[i] = j
			changed = true
		}
	}
	for i, t := range src.locals {
		if j := joinT(s.locals[i], t); j != s.locals[i] {
			s.locals[i] = j
			changed = true
		}
	}
	return changed
}

// flowChunk runs the abstract interpreter over one code stream (wire or
// quickened) and returns the proven maximum operand depth.
func flowChunk(o *Object, ci int, c *Chunk, code []Instr, quick bool, capEnv int) (int, error) {
	fail := func(pc int, kind, msg string, args ...any) error {
		return &VerifyError{Module: o.ModName, Chunk: ci, Name: c.Name, PC: pc, Quick: quick, Kind: kind, Msg: fmt.Sprintf(msg, args...)}
	}
	if len(code) == 0 {
		return 0, fail(-1, VerifyFallOff, "empty code stream")
	}
	// Structural pass first: every instruction, reachable or not, must have
	// in-bounds operands so no decode of this object can index wild.
	if err := structuralPass(o, ci, c, code, quick); err != nil {
		return 0, err
	}

	states := make([]*absState, len(code))
	entry := &absState{locals: make([]vtype, c.NLocals)}
	states[0] = entry
	work := []int{0}
	maxDepth := 0

	// flowTo merges state into target pc (an instruction boundary), growing
	// the worklist on change.
	flowTo := func(from int, tgt int, st *absState) error {
		if tgt == len(code) {
			return fail(from, VerifyFallOff, "control reaches past the last instruction")
		}
		if tgt < 0 || tgt > len(code) {
			return fail(from, VerifyBadJump, "target %d outside chunk of %d instructions", tgt, len(code))
		}
		if cur := states[tgt]; cur != nil {
			if len(cur.stack) != len(st.stack) {
				return fail(from, VerifyDepthMismatch, "pc %d joined at depths %d and %d", tgt, len(cur.stack), len(st.stack))
			}
			if cur.join(st) {
				work = append(work, tgt)
			}
			return nil
		}
		states[tgt] = st.clone()
		work = append(work, tgt)
		return nil
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		st := states[pc].clone()
		ins := code[pc]

		need := func(n int) error {
			if len(st.stack) < n {
				return fail(pc, VerifyUnderflow, "%s needs %d operands, stack has %d", opName(ins.Op), n, len(st.stack))
			}
			return nil
		}
		push := func(t vtype) {
			st.stack = append(st.stack, t)
		}
		pop := func() vtype {
			t := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			return t
		}

		terminal := false
		branch := -1 // extra successor beyond fallthrough

		switch ins.Op {
		case opNop, opPopHandler:
		case opConstInt:
			push(vInt)
		case opConstStr:
			push(vStr)
		case opConstBool:
			push(vBool)
		case opConstUnit:
			push(vUnit)
		case opLocalGet:
			push(st.locals[ins.A])
		case opLocalSet:
			if err := need(1); err != nil {
				return 0, err
			}
			st.locals[ins.A] = pop()
		case opCaptureGet:
			if capEnv >= 0 && int(ins.A) >= capEnv {
				return 0, fail(pc, VerifyBadCapture, "reads capture %d but every creation site builds %d", ins.A, capEnv)
			}
			push(vAny)
		case opGlobalGet:
			push(vAny)
		case opGlobalSet:
			if err := need(1); err != nil {
				return 0, err
			}
			pop()
		case opImportGet:
			push(vAny)
		case opClosure:
			push(vFun)
		case opCall:
			n := int(ins.A)
			if err := need(n + 1); err != nil {
				return 0, err
			}
			callee := st.stack[len(st.stack)-n-1]
			if notCallable(callee) {
				return 0, fail(pc, VerifyTypeConfusion, "call of non-function %s", callee)
			}
			st.stack = st.stack[:len(st.stack)-n-1]
			push(vAny)
		case opTailCall:
			n := int(ins.A)
			if err := need(n + 1); err != nil {
				return 0, err
			}
			callee := st.stack[len(st.stack)-n-1]
			if notCallable(callee) {
				return 0, fail(pc, VerifyTypeConfusion, "tail call of non-function %s", callee)
			}
			terminal = true
		case opReturn:
			if err := need(1); err != nil {
				return 0, err
			}
			terminal = true
		case opJump:
			branch = pc + 1 + int(ins.A)
			terminal = true // no fallthrough
		case opJumpIfFalse, opJumpIfTrue:
			if err := need(1); err != nil {
				return 0, err
			}
			if t := pop(); notBool(t) {
				return 0, fail(pc, VerifyTypeConfusion, "branch condition is %s, not %s", t, vBool)
			}
			branch = pc + 1 + int(ins.A)
		case opPop:
			if err := need(1); err != nil {
				return 0, err
			}
			pop()
		case opAdd, opSub, opMul, opDiv, opMod:
			if err := need(2); err != nil {
				return 0, err
			}
			b, a := pop(), pop()
			if notInt(a) || notInt(b) {
				return 0, fail(pc, VerifyTypeConfusion, "%s of %s and %s", opName(ins.Op), a, b)
			}
			push(vInt)
		case opConcat:
			if err := need(2); err != nil {
				return 0, err
			}
			b, a := pop(), pop()
			if notStr(a) || notStr(b) {
				return 0, fail(pc, VerifyTypeConfusion, "concat of %s and %s", a, b)
			}
			push(vStr)
		case opEq, opNe, opLt, opLe, opGt, opGe:
			if err := need(2); err != nil {
				return 0, err
			}
			pop()
			pop()
			push(vBool)
		case opNot:
			if err := need(1); err != nil {
				return 0, err
			}
			if t := pop(); notBool(t) {
				return 0, fail(pc, VerifyTypeConfusion, "not of %s", t)
			}
			push(vBool)
		case opNeg:
			if err := need(1); err != nil {
				return 0, err
			}
			if t := pop(); notInt(t) {
				return 0, fail(pc, VerifyTypeConfusion, "negation of %s", t)
			}
			push(vInt)
		case opTuple:
			n := int(ins.A)
			if err := need(n); err != nil {
				return 0, err
			}
			st.stack = st.stack[:len(st.stack)-n]
			push(vTuple)
		case opTupleGet:
			if err := need(1); err != nil {
				return 0, err
			}
			if t := pop(); notTuple(t) {
				return 0, fail(pc, VerifyTypeConfusion, "projection from %s", t)
			}
			push(vAny)
		case opRaise:
			if err := need(1); err != nil {
				return 0, err
			}
			terminal = true
		case opPushHandler:
			// The handler is entered with the stack exactly as it is at
			// install time (the interpreter truncates to the recorded sp on
			// unwind), so the target joins with the current state.
			branch = pc + 1 + int(ins.A)
		case opRefGet:
			if err := need(1); err != nil {
				return 0, err
			}
			if t := pop(); t != vAny && t != vRef {
				return 0, fail(pc, VerifyTypeConfusion, "dereference of %s", t)
			}
			push(vAny)
		case opRefSet:
			if err := need(2); err != nil {
				return 0, err
			}
			pop()
			if t := pop(); t != vAny && t != vRef {
				return 0, fail(pc, VerifyTypeConfusion, "assignment to %s", t)
			}
			push(vUnit)

		// Quickened superinstructions: only legal in the quick stream
		// (structuralPass rejects them on the wire).
		case qGetGet:
			push(st.locals[ins.A])
			push(st.locals[ins.B])
		case qCmpJf:
			if err := need(2); err != nil {
				return 0, err
			}
			pop()
			pop()
			branch = pc + 1 + int(ins.A)
		case qGGCmpJf:
			branch = pc + 1 + int(ins.A)
		case qIncL:
			if t := st.locals[ins.A]; notInt(t) {
				return 0, fail(pc, VerifyTypeConfusion, "increment of %s local", t)
			}
			st.locals[ins.A] = vInt
		case qGetFieldSet:
			if t := st.locals[ins.A]; notTuple(t) {
				return 0, fail(pc, VerifyTypeConfusion, "field load from %s local", t)
			}
			st.locals[uint32(ins.B)>>8] = vAny
		case qConcatN:
			n := int(ins.A)
			if err := need(n + 1); err != nil {
				return 0, err
			}
			for i := 0; i <= n; i++ {
				if t := pop(); notStr(t) {
					return 0, fail(pc, VerifyTypeConfusion, "concat of %s", t)
				}
			}
			push(vStr)
		case qStrSub, qStrGet, qHtblFind, qHtblMem, qHtblAdd:
			n := int(ins.A & 0xff)
			if err := need(n + 1); err != nil {
				return 0, err
			}
			callee := st.stack[len(st.stack)-n-1]
			if notCallable(callee) {
				return 0, fail(pc, VerifyTypeConfusion, "specialized call of non-function %s", callee)
			}
			st.stack = st.stack[:len(st.stack)-n-1]
			push(inlinedNatives[ins.Op-qStrSub].result)
		default:
			return 0, fail(pc, VerifyBadOpcode, "opcode %d", ins.Op)
		}

		if len(st.stack) > maxDepth {
			maxDepth = len(st.stack)
			if maxDepth > maxVerifyDepth {
				return 0, fail(pc, VerifyOverflow, "operand depth exceeds %d", maxVerifyDepth)
			}
		}
		if branch >= 0 {
			if err := flowTo(pc, branch, st); err != nil {
				return 0, err
			}
		}
		if !terminal {
			if err := flowTo(pc, pc+1, st); err != nil {
				return 0, err
			}
		}
	}
	return maxDepth, nil
}

// structuralPass bounds-checks every instruction of a stream, reachable or
// not: a verified object must be safe to decode and inspect in full.
func structuralPass(o *Object, ci int, c *Chunk, code []Instr, quick bool) error {
	nImports := importSlotCount(o)
	for pc, ins := range code {
		fail := func(kind, msg string, args ...any) error {
			return &VerifyError{Module: o.ModName, Chunk: ci, Name: c.Name, PC: pc, Quick: quick, Kind: kind, Msg: fmt.Sprintf(msg, args...)}
		}
		if !quick && ins.Op >= opMax {
			return fail(VerifyBadOpcode, "opcode %d is not wire code", ins.Op)
		}
		if ins.Op >= qMax {
			return fail(VerifyBadOpcode, "opcode %d", ins.Op)
		}
		switch ins.Op {
		case opConstStr:
			if ins.A < 0 || int(ins.A) >= len(o.StrPool) {
				return fail(VerifyBadOperand, "string %d outside pool of %d", ins.A, len(o.StrPool))
			}
		case opLocalGet, opLocalSet:
			if ins.A < 0 || int(ins.A) >= c.NLocals {
				return fail(VerifyBadOperand, "local %d outside frame of %d", ins.A, c.NLocals)
			}
		case opCaptureGet:
			if ins.A < 0 || ins.A > 0xffff {
				return fail(VerifyBadOperand, "capture %d implausible", ins.A)
			}
		case opGlobalGet, opGlobalSet:
			if ins.A < 0 || int(ins.A) >= o.NGlobals {
				return fail(VerifyBadOperand, "global %d outside table of %d", ins.A, o.NGlobals)
			}
		case opImportGet:
			if ins.A < 0 || int(ins.A) >= nImports {
				return fail(VerifyBadOperand, "import %d outside table of %d", ins.A, nImports)
			}
		case opClosure:
			if ins.A < 0 || int(ins.A) >= len(o.Chunks) {
				return fail(VerifyBadOperand, "closure chunk %d out of range", ins.A)
			}
			if ins.B < 0 || int(ins.B) >= len(o.CapSpecs) {
				return fail(VerifyBadOperand, "capture spec %d out of range", ins.B)
			}
		case opJump, opJumpIfFalse, opJumpIfTrue, opPushHandler:
			tgt := pc + 1 + int(ins.A)
			if tgt < 0 || tgt > len(code) {
				return fail(VerifyBadJump, "target %d outside chunk of %d instructions", tgt, len(code))
			}
		case opCall, opTailCall:
			if ins.A < 1 || ins.A > 255 {
				return fail(VerifyBadOperand, "call arity %d", ins.A)
			}
		case opTuple:
			if ins.A < 2 || ins.A > 4 {
				return fail(VerifyBadOperand, "tuple arity %d", ins.A)
			}
		case opTupleGet:
			if ins.A < 0 || ins.A > 255 {
				return fail(VerifyBadOperand, "tuple index %d", ins.A)
			}
		case qGetGet:
			if ins.A < 0 || int(ins.A) >= c.NLocals || ins.B < 0 || int(ins.B) >= c.NLocals {
				return fail(VerifyBadOperand, "locals %d,%d outside frame of %d", ins.A, ins.B, c.NLocals)
			}
		case qCmpJf:
			if !isCmpOp(byte(ins.B)) {
				return fail(VerifyBadOperand, "comparison opcode %d", ins.B)
			}
			if tgt := pc + 1 + int(ins.A); tgt < 0 || tgt > len(code) {
				return fail(VerifyBadJump, "target %d outside chunk of %d instructions", tgt, len(code))
			}
		case qGGCmpJf:
			bb := uint32(ins.B)
			if int(bb&0xfff) >= c.NLocals || int((bb>>12)&0xfff) >= c.NLocals {
				return fail(VerifyBadOperand, "locals %d,%d outside frame of %d", bb&0xfff, (bb>>12)&0xfff, c.NLocals)
			}
			if !isCmpOp(byte(bb >> 24)) {
				return fail(VerifyBadOperand, "comparison opcode %d", bb>>24)
			}
			if tgt := pc + 1 + int(ins.A); tgt < 0 || tgt > len(code) {
				return fail(VerifyBadJump, "target %d outside chunk of %d instructions", tgt, len(code))
			}
		case qIncL:
			if ins.A < 0 || int(ins.A) >= c.NLocals {
				return fail(VerifyBadOperand, "local %d outside frame of %d", ins.A, c.NLocals)
			}
		case qGetFieldSet:
			bb := uint32(ins.B)
			if ins.A < 0 || int(ins.A) >= c.NLocals || int(bb>>8) >= c.NLocals {
				return fail(VerifyBadOperand, "locals %d,%d outside frame of %d", ins.A, bb>>8, c.NLocals)
			}
		case qConcatN:
			if ins.A < 2 || ins.A > maxConcatRun || int64(ins.W) != ins.A {
				return fail(VerifyBadOperand, "concat run of %d with step weight %d", ins.A, ins.W)
			}
		case qStrSub, qStrGet, qHtblFind, qHtblMem, qHtblAdd:
			if n := ins.A & 0xff; n < 1 {
				return fail(VerifyBadOperand, "specialized call arity %d", n)
			}
			// Only q.str_sub sites own a cache slot; every other specialized
			// op must carry none.
			ic := ins.A >> 8
			if ins.Op == qStrSub && (ic < 0 || int(ic) >= o.NICSites) {
				return fail(VerifyBadOperand, "inline-cache site %d outside table of %d", ic, o.NICSites)
			}
			if ins.Op != qStrSub && ic != 0 {
				return fail(VerifyBadOperand, "%s carries inline-cache site %d", opName(ins.Op), ic)
			}
		}
	}
	return nil
}

func isCmpOp(op byte) bool {
	switch op {
	case opEq, opNe, opLt, opLe, opGt, opGe:
		return true
	}
	return false
}
