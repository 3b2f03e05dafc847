package vm

// The translated tier (-O2): hot chunks of verified switchlets get a third
// code stream — the quickened stream with selected instruction patterns
// replaced by a single opTrans superinstruction dispatching to a fused Go
// closure. Everything outside those patterns is the unmodified quickened
// stream, executed by the unmodified interpreter loop, so the tier costs
// exactly nothing on instructions the translator leaves alone.
//
// The interpreter's inline dispatch is cheap enough that translating
// individual instructions into closures loses (an indirect call costs more
// than a predicted switch dispatch), so the translator fuses the one shape
// where a closure replaces a *bulk* of interpreter work — the spec-call
// pattern: a run of pure pushes supplying exactly the callee and arguments
// of a predicted native superinstruction (String.sub/get,
// Hashtbl.find/mem/add), plus an optional local-set / pop consuming the
// result. The closure reads the arguments straight from their sources and
// writes the result straight to its sink — the callee push, argument
// pushes, operand-stack traffic and result pop all disappear. The callee is
// a link-time-resolved import, so the interpreter's callee guard is
// discharged once, at translation time: a pattern is only fused when the
// captured value already is the predicted native, and fused code never
// deoptimizes.
//
// The translation is semantically invisible: every closure reproduces the
// interpreter's exact stack effects, traps, Steps and AllocBytes, so
// virtual time is bit-identical at every level. Fuel is charged for a
// whole block up front; when the remaining fuel cannot cover it, run()
// deoptimizes the frame to the wire code so the exhaustion point stays
// identical to -O0, and when a kernel traps it refunds the weight of the
// instructions after the trap point (see the status packing below).
//
// Translations are per-LinkedModule — closures capture the module's
// resolved imports, global slot array and inline-cache sites — so the
// shared Object stays immutable between bridges, exactly like the inline
// caches. The Manager flushes them on the same epochs.
//
// Trust model: the loader enables the tier only for objects VerifyObject
// has accepted (Loader.OptLevel >= 2 gates it; unverified objects stay on
// the interpreter), so operand bounds checked here at translation time
// were already proven. opTrans itself can never arrive from the wire:
// DecodeObject and Verify reject every opcode >= opMax.

// opTrans is the runtime-only superblock opcode. It exists solely in
// per-module trans streams (never in Code or Quick, never serialized):
// A indexes chunkTrans.blocks, W carries the block's summed fuel weight.
const opTrans = qMax

// chunkTrans is one chunk's translation: the code stream the -O2 loop
// executes (quick — or wire, for chunks the optimizer left alone — with
// opTrans spliced at each fused pattern's start) and the block closures it
// dispatches to. Positions are unchanged, so quickSrc, jump targets and
// handler targets mean the same thing in all three streams, and a jump
// into a block's interior simply executes the original instructions one
// at a time.
type chunkTrans struct {
	code   []Instr
	blocks []tstep
}

// tstep is one translated block closure. It runs after run() has charged
// the block's whole fuel weight and advanced f.ip past the block's first
// instruction, and returns a status telling the dispatch loop how to
// proceed.
type tstep func(m *Machine, f *frameSlot) int

// tstep statuses, with the unexecuted fuel refund packed above the status
// bit (tsOK carries nothing).
const (
	// tsOK: completed; f.ip is at the block's successor.
	tsOK = iota
	// tsTrap: trapped; the Trap is in Machine.transTrap and f.ip is at the
	// trapping instruction's successor.
	tsTrap
)

// tsRefundShift: bits above the status carry the block's fuel refund.
const tsRefundShift = 1

// Pure-push sources: instructions whose only effect is pushing values
// computable from captured operands and frame slots, with no trap and no
// deopt (operand bounds proven by the verifier, re-checked at translation
// time). Integer constants are boxed once at translation time — box
// identity is never observable (the small-int cache already shares boxes)
// and boxing carries no AllocBytes — so a constant push is just a captured
// Value.
const (
	psVal    = byte(iota) // push a captured Value (constants, imports)
	psLocal               // push frame local a
	psGlobal              // push module global a
)

type pushSrc struct {
	kind byte
	a    int64
	v    Value
}

// fetch evaluates one push source without pushing it. Kept call-free so it
// inlines into every fused closure.
func (s *pushSrc) fetch(m *Machine, f *frameSlot, g []Value) Value {
	if s.kind == psLocal {
		return m.vals[f.base+int(s.a)]
	}
	if s.kind == psGlobal {
		return g[s.a]
	}
	return s.v
}

// Result sinks for spec-call patterns.
const (
	sfNone = byte(iota) // push the result (no suffix fused)
	sfLSet              // store the result to a local (fused opLocalSet)
	sfPop               // discard the result (fused opPop)
)

// Per-position classification feeding pattern formation.
const (
	pOther = byte(iota) // not translatable; stays interpreted
	pPush               // pure push (srcs non-nil)
	pSpec               // predicted native superinstruction
	pLSet               // opLocalSet with a proven slot
	pPop                // opPop
)

type pinfo struct {
	kind byte
	srcs []pushSrc // pPush: the one or two values pushed
	spec byte      // pSpec: the quickened opcode
	n    int       // pSpec: arity
	ic   int       // pSpec: inline-cache site index
	slot int       // pLSet: local slot
}

// specShape returns the native tag and arity a spec opcode predicts.
func specShape(op byte) (int, int) {
	switch op {
	case qStrSub:
		return TagStrSub, 3
	case qStrGet:
		return TagStrGet, 2
	case qHtblFind:
		return TagHtblFind, 2
	case qHtblMem:
		return TagHtblMem, 2
	default: // qHtblAdd
		return TagHtblAdd, 3
	}
}

// classify maps each position of the chunk's preferred stream to its role
// in pattern formation, validating operands once here so closures only
// execute. Anything unknown or out of bounds is simply pOther.
func classify(lm *LinkedModule, c *Chunk, code []Instr) []pinfo {
	obj := lm.Obj
	ps := make([]pinfo, len(code))
	for i := range code {
		ins := code[i]
		p := &ps[i]
		switch ins.Op {
		case opConstInt:
			p.kind, p.srcs = pPush, []pushSrc{{kind: psVal, v: boxInt(ins.A)}}
		case opConstStr:
			if ins.A >= 0 && int(ins.A) < len(obj.StrPool) {
				p.kind, p.srcs = pPush, []pushSrc{{kind: psVal, v: obj.StrPool[ins.A]}}
			}
		case opConstBool:
			p.kind, p.srcs = pPush, []pushSrc{{kind: psVal, v: boxBool(ins.A != 0)}}
		case opConstUnit:
			p.kind, p.srcs = pPush, []pushSrc{{kind: psVal, v: valUnit}}
		case opLocalGet:
			if ins.A >= 0 && int(ins.A) < c.NLocals {
				p.kind, p.srcs = pPush, []pushSrc{{kind: psLocal, a: ins.A}}
			}
		case opGlobalGet:
			if ins.A >= 0 && int(ins.A) < len(lm.Globals) {
				p.kind, p.srcs = pPush, []pushSrc{{kind: psGlobal, a: ins.A}}
			}
		case opImportGet:
			if ins.A >= 0 && int(ins.A) < len(lm.Imports) {
				p.kind, p.srcs = pPush, []pushSrc{{kind: psVal, v: lm.Imports[ins.A]}}
			}
		case qGetGet:
			if ins.A >= 0 && int(ins.A) < c.NLocals && ins.B >= 0 && int(ins.B) < c.NLocals {
				p.kind, p.srcs = pPush, []pushSrc{{kind: psLocal, a: ins.A}, {kind: psLocal, a: int64(ins.B)}}
			}
		case qStrSub, qStrGet, qHtblFind, qHtblMem, qHtblAdd:
			if _, n := specShape(ins.Op); int(ins.A&0xff) == n {
				p.kind, p.spec, p.n, p.ic = pSpec, ins.Op, n, int(ins.A>>8)
			}
		case opLocalSet:
			if ins.A >= 0 && int(ins.A) < c.NLocals {
				p.kind, p.slot = pLSet, int(ins.A)
			}
		case opPop:
			p.kind = pPop
		}
	}
	return ps
}

// buildTrans assembles a chunk's translation: copy the preferred stream,
// then splice an opTrans superinstruction over the first position of every
// spec-call pattern. Returns the refusal sentinel when nothing fuses.
func buildTrans(lm *LinkedModule, c *Chunk) *chunkTrans {
	src := c.Quick
	if src == nil {
		src = c.Code
	}
	ps := classify(lm, c, src)
	var code []Instr
	var blocks []tstep
	for j := range src {
		if ps[j].kind != pSpec {
			continue
		}
		// The pure pushes right before the call must supply exactly the
		// callee and arguments (a q.get_get pushes two, so the walk can
		// overshoot; such a site stays interpreted).
		want := ps[j].n + 1
		b, cnt := j, 0
		for b > 0 && cnt < want && ps[b-1].kind == pPush {
			b--
			cnt += len(ps[b].srcs)
		}
		if cnt != want {
			continue
		}
		var pat []pushSrc
		bw := weightOf(src[j])
		for k := b; k < j; k++ {
			pat = append(pat, ps[k].srcs...)
			bw += weightOf(src[k])
		}
		// The callee must already be the predicted native.
		tag, _ := specShape(ps[j].spec)
		nat, ok := pat[0].v.(*Native)
		if pat[0].kind != psVal || !ok || nat.Arity != ps[j].n || nat.Tag != tag {
			continue
		}
		end := j + 1
		suffix, slot, tailW := sfNone, 0, 0
		if end < len(src) {
			switch ps[end].kind {
			case pLSet:
				suffix, slot, tailW = sfLSet, ps[end].slot, weightOf(src[end])
				end++
			case pPop:
				suffix, tailW = sfPop, weightOf(src[end])
				end++
			}
		}
		if code == nil {
			code = append([]Instr(nil), src...)
		}
		// A handful of positions of weight <= 2 each: W cannot overflow.
		code[b] = Instr{Op: opTrans, W: byte(bw + tailW), A: int64(len(blocks))}
		blocks = append(blocks, makeSpec(lm, &ps[j], pat[1:], suffix, slot, j-b, tailW, end-b))
	}
	if len(blocks) == 0 {
		return refusedTrans
	}
	return &chunkTrans{code: code, blocks: blocks}
}

// makeSpec builds the fused closure for one spec-call pattern. The closure
// is entered with f.ip one past the block start; on success it leaves f.ip
// at the block's successor, on a trap at the trapping (spec) instruction's
// successor with the suffix weight as the packed refund.
//
// Soundness: fuel and steps are run()-locals, observable only at traps,
// deoptimization and exhaustion, and the operand stack is observable only
// through pushes and pops — a balanced push/consume sequence with no
// call-out in between collapses entirely. The kernels reproduce the
// interpreter's trap messages, Not_found semantics, AllocBytes accounting
// and inline-cache behavior exactly; the callee guard is discharged at
// translation time against the link-time-resolved import value, which is
// immutable for the module's lifetime.
func makeSpec(lm *LinkedModule, p *pinfo, args []pushSrc, suffix byte, slot, specOff, tailW, span int) tstep {
	ic := icAt(lm, p.ic)
	g := lm.Globals
	dip := span - 1
	trapSt := tsTrap | tailW<<tsRefundShift
	switch p.spec {
	case qStrSub:
		a0, a1, a2 := args[0], args[1], args[2]
		return func(m *Machine, f *frameSlot) int {
			var res Value
			var callErr *Trap
			if s, ok := a0.fetch(m, f, g).(string); !ok {
				callErr = &Trap{Msg: "argument 0: expected string"}
			} else if pos, ok := a1.fetch(m, f, g).(int64); !ok {
				callErr = &Trap{Msg: "argument 1: expected int"}
			} else if ln, ok := a2.fetch(m, f, g).(int64); !ok {
				callErr = &Trap{Msg: "argument 2: expected int"}
			} else if pos < 0 || ln < 0 || pos+ln > int64(len(s)) {
				callErr = &Trap{Msg: "String.sub: out of bounds"}
			} else {
				m.AllocBytes += uint64(ln)
				sub := s[pos : pos+ln]
				if ic != nil {
					if ic.b1 != nil && ic.s1 == sub {
						res = ic.b1
					} else if ic.b2 != nil && ic.s2 == sub {
						ic.s1, ic.s2 = ic.s2, ic.s1
						ic.b1, ic.b2 = ic.b2, ic.b1
						res = ic.b1
					} else {
						res = sub
						ic.s2, ic.b2 = ic.s1, ic.b1
						ic.s1, ic.b1 = sub, res
					}
				} else {
					res = sub
				}
			}
			if callErr != nil {
				f.ip += specOff
				m.transTrap = callErr
				return trapSt
			}
			switch suffix {
			case sfLSet:
				m.vals[f.base+slot] = res
			case sfPop:
			default:
				m.vals = append(m.vals, res)
			}
			f.ip += dip
			return tsOK
		}
	case qStrGet:
		a0, a1 := args[0], args[1]
		return func(m *Machine, f *frameSlot) int {
			var res Value
			var callErr *Trap
			if s, ok := a0.fetch(m, f, g).(string); !ok {
				callErr = &Trap{Msg: "argument 0: expected string"}
			} else if i, ok := a1.fetch(m, f, g).(int64); !ok {
				callErr = &Trap{Msg: "argument 1: expected int"}
			} else if i < 0 || i >= int64(len(s)) {
				callErr = &Trap{Msg: "String.get: index out of bounds"}
			} else {
				res = boxInt(int64(s[i]))
			}
			if callErr != nil {
				f.ip += specOff
				m.transTrap = callErr
				return trapSt
			}
			switch suffix {
			case sfLSet:
				m.vals[f.base+slot] = res
			case sfPop:
			default:
				m.vals = append(m.vals, res)
			}
			f.ip += dip
			return tsOK
		}
	case qHtblFind, qHtblMem:
		find := p.spec == qHtblFind
		a0, a1 := args[0], args[1]
		return func(m *Machine, f *frameSlot) int {
			var res Value
			var callErr *Trap
			if t, ok := a0.fetch(m, f, g).(*Hashtbl); !ok {
				callErr = &Trap{Msg: "argument 0: expected hashtbl"}
			} else if k, kerr := hashKey(a1.fetch(m, f, g)); kerr != nil {
				callErr = kerr.(*Trap)
			} else {
				var v Value
				var has bool
				if ic != nil {
					if ic.tbl == t && ic.ver == t.Version && ic.key == k {
						v, has = ic.val, ic.has
					} else {
						v, has = t.M[k]
						ic.tbl, ic.ver, ic.key, ic.val, ic.has = t, t.Version, k, v, has
					}
				} else {
					v, has = t.M[k]
				}
				if find {
					if has {
						res = v
					} else {
						callErr = &Trap{Msg: "Not_found"}
					}
				} else {
					res = boxBool(has)
				}
			}
			if callErr != nil {
				f.ip += specOff
				m.transTrap = callErr
				return trapSt
			}
			switch suffix {
			case sfLSet:
				m.vals[f.base+slot] = res
			case sfPop:
			default:
				m.vals = append(m.vals, res)
			}
			f.ip += dip
			return tsOK
		}
	default: // qHtblAdd
		a0, a1, a2 := args[0], args[1], args[2]
		return func(m *Machine, f *frameSlot) int {
			var res Value
			var callErr *Trap
			if t, ok := a0.fetch(m, f, g).(*Hashtbl); !ok {
				callErr = &Trap{Msg: "argument 0: expected hashtbl"}
			} else if k, kerr := hashKey(a1.fetch(m, f, g)); kerr != nil {
				callErr = kerr.(*Trap)
			} else {
				m.AllocBytes += 32
				t.Set(k, a2.fetch(m, f, g))
				res = valUnit
			}
			if callErr != nil {
				f.ip += specOff
				m.transTrap = callErr
				return trapSt
			}
			switch suffix {
			case sfLSet:
				m.vals[f.base+slot] = res
			case sfPop:
			default:
				m.vals = append(m.vals, res)
			}
			f.ip += dip
			return tsOK
		}
	}
}

// transHotThreshold is how many frame entries a chunk sees before it is
// translated. Translation cost is paid once per (module, chunk); cold
// chunks — module init code, rarely taken handlers — stay interpreted.
// Because translation never changes observable semantics, the threshold
// has no effect on virtual time, only on host wall clock.
const transHotThreshold = 32

// refusedTrans marks a chunk the translator declined (no blocks, vs nil
// meaning "not yet attempted").
var refusedTrans = &chunkTrans{}

// transFor returns chunk c's translation, building it lazily once the
// chunk has run hot. Returns nil while cold or refused. The warm path is
// kept minimal so it inlines into run()'s frame-entry sequence.
func (lm *LinkedModule) transFor(c *Chunk) *chunkTrans {
	idx := c.Idx
	if idx < 0 || idx >= len(lm.trans) {
		return nil
	}
	if tc := lm.trans[idx]; tc != nil {
		if len(tc.blocks) == 0 {
			return nil
		}
		return tc
	}
	return lm.transForCold(c, idx)
}

// transForCold is transFor's build path: count the chunk toward the
// hotness threshold, and translate once it crosses.
func (lm *LinkedModule) transForCold(c *Chunk, idx int) *chunkTrans {
	if lm.transHot[idx] < transHotThreshold {
		lm.transHot[idx]++
		return nil
	}
	tc := buildTrans(lm, c)
	lm.trans[idx] = tc
	if len(tc.blocks) == 0 {
		return nil
	}
	return tc
}

// FlushTrans drops every translation and hotness counter of the module.
// The Manager calls this (via Loader.FlushAllTranslations) on the same
// epochs that flush the inline caches; chunks re-warm afterwards.
func (lm *LinkedModule) FlushTrans() {
	for i := range lm.trans {
		lm.trans[i] = nil
	}
	for i := range lm.transHot {
		lm.transHot[i] = 0
	}
}

// Translate eagerly translates every chunk of the module, bypassing the
// hotness threshold. A no-op when the loader did not enable the tier
// (OptLevel < 2 or the object is unverified). Used by differential tests
// and benchmarks that need the translated tier exercised from step one.
func (lm *LinkedModule) Translate() {
	if lm.trans == nil {
		return
	}
	for i, c := range lm.Obj.Chunks {
		if i < len(lm.trans) && lm.trans[i] == nil {
			lm.trans[i] = buildTrans(lm, c)
		}
	}
}

// Translated reports how many chunks currently hold a live (non-refused)
// translation — introspection for tests and telemetry.
func (lm *LinkedModule) Translated() int {
	n := 0
	for _, tc := range lm.trans {
		if tc != nil && len(tc.blocks) > 0 {
			n++
		}
	}
	return n
}

// FlushAllTranslations drops the translations of every loaded module. The
// Manager calls this alongside FlushAllICs around Install/Uninstall/
// Rollback: cached closures must not carry resolved state across a change
// of the loaded-module set.
func (l *Loader) FlushAllTranslations() {
	for _, lm := range l.modules { //ab:mapiter-ok independent per-module flushes; order cannot escape
		lm.FlushTrans()
	}
}

// chunkIdxConsistent reports whether every chunk's Idx matches its position
// in Object.Chunks. The compiler and decoder maintain this; hand-built
// objects may not, and translation is refused for them rather than keying
// closure tables with stale indices.
func chunkIdxConsistent(o *Object) bool {
	for i, c := range o.Chunks {
		if c.Idx != i {
			return false
		}
	}
	return true
}
