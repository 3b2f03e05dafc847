package vm

// The optimizing tier between the typechecker and the interpreter.
//
// OptimizeObject rewrites each chunk's wire code into an in-memory
// quickened form (Chunk.Quick): hot instruction sequences are fused into
// superinstructions, and call sites whose callee is statically a well-known
// native are specialized into inlined fast paths (String.sub sites also get
// a per-site result cache). There is one rule set: every rewrite is checkable from the
// wire code alone, so compiled and decoded objects quicken identically.
//
// Invariants the rewrite must preserve exactly, because virtual time is
// computed from them:
//
//   - Machine.Steps: every superinstruction carries a step weight W equal
//     to the number of wire instructions it replaces, and a trap or fuel
//     exhaustion in the middle of a fused sequence deoptimizes to the naive
//     code (via Chunk.quickSrc) so the partially-consumed steps are charged
//     exactly as -O0 would charge them.
//   - Machine.AllocBytes: inlined natives replicate their Go
//     implementations' metering byte for byte.
//   - Results and traps: fused comparisons keep the valueEq/valueCmp
//     distinction, and the .swo wire format (Encode/DecodeObject) carries
//     only the naive code, so the transmitted object — and with it every
//     deployment fingerprint — is identical at every optimization level.

// OptimizeObject quickens o's chunks in place. Idempotent and safe to call
// on objects shared between bridges. The bool is ignored: it once selected
// a second rule set, and the frozen benchmark still passes it.
func OptimizeObject(o *Object, _ bool) {
	o.optOnce.Do(func() {
		t := &optimizer{impName: o.ImportSlotNames()}
		for _, c := range o.Chunks {
			t.chunk(c)
		}
		o.NICSites = t.nIC
	})
}

type optimizer struct {
	// impName is the import table flattened to "Module.name" per slot,
	// the key for call-site specialization.
	impName []string
	// nIC counts inline-cache sites assigned across the object.
	nIC int
}

// chunk computes the quickened form of c; if nothing improved, c.Quick
// stays nil and the interpreter keeps using the wire code.
func (t *optimizer) chunk(c *Chunk) {
	code := make([]Instr, len(c.Code))
	copy(code, c.Code)
	specialized := t.specializeCalls(code)
	code, src, fused := fuse(code)
	if !specialized && !fused {
		return
	}
	c.Quick = code
	c.quickSrc = src
}

// specialOp maps an import's full name and call arity to its quickened
// opcode. Only q.str_sub sites get an inline-cache slot.
func specialOp(name string, argc int) (op byte, ok bool) {
	switch {
	case name == "String.sub" && argc == 3:
		return qStrSub, true
	case name == "String.get" && argc == 2:
		return qStrGet, true
	case name == "Hashtbl.find" && argc == 2:
		return qHtblFind, true
	case name == "Hashtbl.mem" && argc == 2:
		return qHtblMem, true
	case name == "Hashtbl.add" && argc == 3:
		return qHtblAdd, true
	}
	return 0, false
}

// specializeCalls rewrites opCall instructions whose callee is statically
// an import of a well-known native into the corresponding inlined opcode.
// The rewrite is position-preserving (1:1), keeps the callee on the stack,
// and is safe for hostile objects too: the interpreter re-verifies the
// native's tag at run time and deoptimizes to the generic call on any
// mismatch. It is the monomorphic inline cache of the issue: the opcode is
// the prediction, the tag check the guard.
func (t *optimizer) specializeCalls(code []Instr) bool {
	if len(t.impName) == 0 {
		return false
	}
	leaders := leadersOf(code)
	changed := false
	// Producer tracking: within a basic block, stack[i] is the pc of the
	// instruction that pushed operand-stack entry i (relative to the block
	// entry; entries inherited from before the block are unknowable and
	// simply absent).
	var stack []int
	pop := func(n int) {
		if n > len(stack) {
			n = len(stack)
		}
		stack = stack[:len(stack)-n]
	}
	for pc := 0; pc < len(code); pc++ {
		if leaders[pc] {
			stack = stack[:0]
		}
		ins := &code[pc]
		switch ins.Op {
		case opConstInt, opConstStr, opConstBool, opConstUnit,
			opLocalGet, opGlobalGet, opCaptureGet, opImportGet, opClosure:
			stack = append(stack, pc)
		case opLocalSet, opGlobalSet, opPop, opRaise, opPopHandler, opJumpIfFalse, opJumpIfTrue:
			if ins.Op != opPopHandler {
				pop(1)
			}
		case opAdd, opSub, opMul, opDiv, opMod, opConcat,
			opEq, opNe, opLt, opLe, opGt, opGe, opRefSet:
			pop(2)
			stack = append(stack, pc)
		case opNot, opNeg, opRefGet, opTupleGet:
			pop(1)
			stack = append(stack, pc)
		case opTuple:
			pop(int(ins.A))
			stack = append(stack, pc)
		case opCall:
			n := int(ins.A)
			if len(stack) >= n+1 {
				prod := stack[len(stack)-n-1]
				if code[prod].Op == opImportGet && int(code[prod].A) < len(t.impName) {
					if op, ok := specialOp(t.impName[code[prod].A], n); ok {
						a := int64(n)
						if op == qStrSub {
							a |= int64(t.nIC) << 8
							t.nIC++
						}
						*ins = Instr{Op: op, W: 1, A: a}
						changed = true
					}
				}
			}
			pop(n + 1)
			stack = append(stack, pc)
		case opTailCall, opReturn, opJump:
			stack = stack[:0]
		default: // opNop, opPushHandler: no stack effect
		}
	}
	return changed
}

// isJumpOp reports whether op's A operand is a relative code offset.
//
//ab:allocfree
func isJumpOp(op byte) bool {
	switch op {
	case opJump, opJumpIfFalse, opJumpIfTrue, opPushHandler,
		qCmpJf, qGGCmpJf:
		return true
	}
	return false
}

// leadersOf marks every position a jump (or handler install) can transfer
// control to. Fusion windows must not span a leader: a jump landing in the
// middle of a superinstruction would skip part of it.
func leadersOf(code []Instr) []bool {
	l := make([]bool, len(code)+1)
	if len(code) > 0 {
		l[0] = true
	}
	for pc, ins := range code {
		if isJumpOp(ins.Op) {
			if tgt := pc + 1 + int(ins.A); tgt >= 0 && tgt <= len(code) {
				l[tgt] = true
			}
		}
	}
	return l
}

// weightOf is the virtual-step weight of one quickened instruction (0 on
// the wire means 1; fused superinstructions carry the sum of their parts).
//
//ab:allocfree
func weightOf(i Instr) int {
	if i.W == 0 {
		return 1
	}
	return int(i.W)
}

// fuse runs the left-to-right peephole pass over code, emitting the fused
// stream plus its source map, and remapping every relative jump offset to
// the new coordinates. One pass is a fixpoint: every pattern matches wire
// opcodes only, so a superinstruction never feeds another.
func fuse(code []Instr) ([]Instr, []int32, bool) {
	leaders := leadersOf(code)
	pos := make([]int32, len(code)+1)
	out := make([]Instr, 0, len(code))
	src := make([]int32, 0, len(code))
	type pendJump struct {
		outIdx, oldTarget int
	}
	var pends []pendJump
	changed := false

	for pc := 0; pc < len(code); pc++ {
		ins, consumed := matchAt(code, pc, leaders)
		pos[pc] = int32(len(out))
		if consumed > 1 {
			changed = true
			for i := 1; i < consumed; i++ {
				pos[pc+i] = -1
			}
		}
		if isJumpOp(ins.Op) {
			// ins.A still holds the source offset of the jump component
			// (always the last instruction of the window), which is
			// relative to pc+consumed; store the absolute target and fix
			// the offset up once the whole stream is laid out.
			pends = append(pends, pendJump{len(out), pc + consumed + int(ins.A)})
		}
		out = append(out, ins)
		src = append(src, int32(pc))
		pc += consumed - 1
	}
	pos[len(code)] = int32(len(out))
	for _, p := range pends {
		out[p.outIdx].A = int64(pos[p.oldTarget]) - int64(p.outIdx) - 1
	}
	return out, src, changed
}

// matchAt returns the (possibly fused) instruction starting at pc and how
// many input instructions it consumes.
func matchAt(code []Instr, pc int, leaders []bool) (Instr, int) {
	// fits reports whether a window of n instructions starting at pc stays
	// inside the stream without crossing a leader.
	fits := func(n int) bool {
		if pc+n > len(code) {
			return false
		}
		for i := 1; i < n; i++ {
			if leaders[pc+i] {
				return false
			}
		}
		return true
	}

	i0 := code[pc]

	// local, local, compare, branch — the loop-head / demux shape.
	if fits(4) && i0.Op == opLocalGet && code[pc+1].Op == opLocalGet &&
		isCmpOp(code[pc+2].Op) && code[pc+3].Op == opJumpIfFalse &&
		i0.A < 1<<12 && code[pc+1].A < 1<<12 {
		return Instr{Op: qGGCmpJf, W: 4, A: code[pc+3].A,
			B: int32(i0.A) | int32(code[pc+1].A)<<12 | int32(code[pc+2].Op)<<24}, 4
	}
	// get s; const k; add; set s — counter increment.
	if fits(4) && i0.Op == opLocalGet && code[pc+1].Op == opConstInt &&
		code[pc+2].Op == opAdd && code[pc+3].Op == opLocalSet &&
		code[pc+3].A == i0.A &&
		code[pc+1].A >= -1<<31 && code[pc+1].A < 1<<31 {
		return Instr{Op: qIncL, W: 4, A: i0.A, B: int32(code[pc+1].A)}, 4
	}
	// get src; tuple_get idx; set dst — LetTuple field destructuring.
	if fits(3) && i0.Op == opLocalGet && code[pc+1].Op == opTupleGet &&
		code[pc+2].Op == opLocalSet &&
		code[pc+1].A < 256 && code[pc+2].A < 1<<22 {
		return Instr{Op: qGetFieldSet, W: 3, A: i0.A,
			B: int32(code[pc+1].A) | int32(code[pc+2].A)<<8}, 3
	}
	// compare; branch.
	if fits(2) && isCmpOp(i0.Op) && code[pc+1].Op == opJumpIfFalse {
		return Instr{Op: qCmpJf, W: 2, A: code[pc+1].A, B: int32(i0.Op)}, 2
	}
	// Two consecutive local loads.
	if fits(2) && i0.Op == opLocalGet && code[pc+1].Op == opLocalGet {
		return Instr{Op: qGetGet, W: 2, A: i0.A, B: int32(code[pc+1].A)}, 2
	}
	return i0, 1
}
