package vm

import (
	"errors"
	"fmt"
)

// Machine is the swl interpreter. It is single-threaded (like the paper's
// user-mode Caml threads: "no speedup occurs due to our multiprocessor")
// and meters execution: Steps and AllocBytes accumulate across invocations,
// and the bridge converts the per-invocation deltas into virtual CPU time.
//
// The interpreter is allocation-free in steady state: all activation
// records live in a pooled frame array, and locals plus operand stacks
// share one growable value arena that is reused across invocations. Only
// switchlet-level allocation (closures, tuples, strings — the operations
// metered by AllocBytes) touches the Go heap.
//
// Chunks carry two code streams: the verified wire Code and an optional
// quickened Quick form produced by OptimizeObject. A frame normally runs
// the quickened stream; any situation the fast paths cannot handle
// (mispredicted inline-cache callee, fuel starvation inside a
// superinstruction) deoptimizes the frame to the wire
// code at the exact equivalent position, so results, traps, Steps and
// AllocBytes are identical at every optimization level.
type Machine struct {
	// Steps counts executed instructions, cumulatively. A fused
	// superinstruction counts as many steps as the wire instructions it
	// replaces (Instr.W).
	Steps uint64
	// AllocBytes estimates heap allocation by switchlet code,
	// cumulatively; the cost model turns it into GC pressure.
	AllocBytes uint64

	// TierEnters counts frame (re)entries per code stream: index 0 is wire
	// code, 1 the quickened stream. Telemetry only — tier residency has no
	// semantic weight.
	TierEnters [2]uint64

	// Trace receives deoptimization events when the host attaches a
	// tracing sink. Nil disables; the check costs one branch per deopt,
	// which is already off the hot path.
	Trace TraceSink

	// MaxSteps is the per-invocation fuel. A switchlet that loops forever
	// is stopped with a trap — part of the bridge protecting itself.
	MaxSteps uint64
	// MaxFrames bounds the call stack depth of one run.
	MaxFrames int

	fuel  uint64
	depth int

	// ctx is the reusable callback context handed to native functions.
	ctx Ctx

	// vals is the shared locals + operand-stack arena. Every frame of
	// every (possibly nested) run occupies a contiguous region; the arena
	// grows once and is reused for the lifetime of the machine.
	vals []Value
	// frames is the pooled activation-record stack, shared by nested runs.
	frames   []frameSlot
	frameTop int

	// tupleSlab bump-allocates tuple elements in blocks so that opTuple
	// costs one Go allocation per block instead of one per tuple. Each
	// tuple is carved with a full slice expression (capacity == length),
	// so no later carve can alias it, and its Value is the carve converted
	// to an array pointer: no header is boxed. Virtual metering
	// (AllocBytes) is unchanged — this only reduces host GC pressure.
	tupleSlab []Value
	slabOff   int

	// intBox amortizes the interface-boxing allocations of out-of-cache
	// ints (see ebox.go).
	intBox IntBoxer

	// strBox, strArena and refSlab do the same for every ref cell and
	// every string longer than two bytes that switchlet code builds; the
	// shorter ones are shared process-wide (shortStr, see ebox.go). All
	// three are lazy: a machine that never concatenates never owns an
	// arena.
	strBox   StrBoxer
	strArena []byte
	refSlab  []Ref
}

// Default execution limits.
const (
	DefaultMaxSteps  = 20_000_000
	DefaultMaxFrames = 4096
)

// tupleSlabSize is the bump-allocation block for opTuple: one Value short
// of a power of two, so the block plus its malloc header fills the 4 KB
// size class (see the slab lengths in ebox.go).
const tupleSlabSize = 255

// NewMachine creates an interpreter with default limits.
func NewMachine() *Machine {
	m := &Machine{MaxSteps: DefaultMaxSteps, MaxFrames: DefaultMaxFrames}
	m.ctx.M = m
	return m
}

// TraceSink observes tier deoptimizations (a quickened frame falling back
// to wire code). Telemetry only: the sink must not re-enter the machine.
type TraceSink interface {
	TraceDeopt(reason string)
}

// Ctx is passed to native functions so they can call back into switchlet
// code (e.g. Hashtbl.iter, or the bridge dispatching a packet handler).
type Ctx struct {
	M *Machine
}

// Call invokes a switchlet-level function value from native code.
func (c *Ctx) Call(fn Value, args ...Value) (Value, error) {
	return c.M.InvokeArgs(fn, args)
}

// ErrFuel is wrapped in the trap produced when an invocation exceeds
// MaxSteps.
var ErrFuel = errors.New("fuel exhausted")

// Invoke applies a callable value to args, metering execution. The fuel
// budget covers the outermost invocation and everything it causes.
func (m *Machine) Invoke(fn Value, args ...Value) (Value, error) {
	return m.InvokeArgs(fn, args)
}

// InvokeArgs is Invoke without the variadic allocation: args may be a
// caller-owned scratch buffer, which is not retained.
func (m *Machine) InvokeArgs(fn Value, args []Value) (Value, error) {
	if m.ctx.M == nil {
		m.ctx.M = m // Machine built without NewMachine
	}
	if m.depth == 0 {
		m.fuel = m.MaxSteps
	}
	m.depth++
	defer func() { m.depth-- }()
	return m.apply(fn, args)
}

// nativeCtx returns the shared callback context, initializing it for
// machines constructed without NewMachine.
func (m *Machine) nativeCtx() *Ctx {
	if m.ctx.M == nil {
		m.ctx.M = m
	}
	return &m.ctx
}

// apply implements the full curried application rules. Zero-parameter
// closures (module init chunks) run when applied to zero arguments, and a
// zero-arity native applied to zero arguments executes immediately (it is
// an exact-arity call, not an under-application).
func (m *Machine) apply(fn Value, args []Value) (Value, error) {
	for {
		switch f := fn.(type) {
		case *Closure:
			n := f.Chunk.NParams
			switch {
			case len(args) == n:
				return m.run(f, args)
			case len(args) == 0:
				return fn, nil
			case len(args) < n:
				m.AllocBytes += uint64(24 + 16*len(args))
				return &Partial{Fn: f, Args: append([]Value(nil), args...)}, nil
			default:
				res, err := m.run(f, args[:n])
				if err != nil {
					return nil, err
				}
				fn, args = res, args[n:]
			}
		case *Native:
			switch {
			case len(args) == f.Arity:
				return f.Fn(m.nativeCtx(), args)
			case len(args) == 0:
				return fn, nil
			case len(args) < f.Arity:
				m.AllocBytes += uint64(24 + 16*len(args))
				return &Partial{Fn: f, Args: append([]Value(nil), args...)}, nil
			default:
				res, err := f.Fn(m.nativeCtx(), args[:f.Arity])
				if err != nil {
					return nil, err
				}
				fn, args = res, args[f.Arity:]
			}
		case *Partial:
			if len(args) == 0 {
				return fn, nil
			}
			combined := make([]Value, 0, len(f.Args)+len(args))
			combined = append(combined, f.Args...)
			combined = append(combined, args...)
			fn, args = f.Fn, combined
		default:
			if len(args) == 0 {
				return fn, nil
			}
			return nil, &Trap{Msg: fmt.Sprintf("cannot apply non-function %s", FormatValue(fn))}
		}
	}
}

// handler is an installed try/with handler.
type handler struct {
	sp     int // absolute arena depth to restore
	target int // instruction index of the handler code
	// naive records the frame's execution tier at install time: the target
	// index is a position in whichever code stream the frame was running,
	// so an unwind must restore the same tier.
	naive bool
}

// frameSlot is one pooled activation record. Locals occupy
// vals[base:opBase] (opBase = base + NLocals) and the operand stack is
// vals[opBase:len(vals)] while the frame is topmost. retBase is the arena
// depth the caller's stack returns to when this frame pops (for called
// frames that is the slot holding the callee value).
type frameSlot struct {
	clo      *Closure
	base     int
	opBase   int
	retBase  int
	ip       int
	handlers []handler

	// naive forces the frame onto the wire Code even when the chunk has a
	// quickened form; set by deoptimization, cleared on frame (re)entry.
	naive bool
}

// pushFrame activates c whose len(args)=c.Chunk.NParams arguments are the
// topmost values of the arena; they become the first locals in place.
// retBase is the arena depth to restore on return.
func (m *Machine) pushFrame(c *Closure, nArgs, retBase int) *frameSlot {
	base := len(m.vals) - nArgs
	for i := nArgs; i < c.Chunk.NLocals; i++ {
		m.vals = append(m.vals, nil)
	}
	if m.frameTop == len(m.frames) {
		m.frames = append(m.frames, frameSlot{})
	}
	f := &m.frames[m.frameTop]
	m.frameTop++
	f.clo = c
	f.base = base
	f.opBase = base + c.Chunk.NLocals
	f.retBase = retBase
	f.ip = 0
	f.handlers = f.handlers[:0]
	f.naive = false
	return f
}

// restore rewinds the shared stacks; deferred by run so that a panicking
// native cannot leave the machine inconsistent.
func (m *Machine) restore(frameFloor, valFloor int) {
	m.frameTop = frameFloor
	m.vals = m.vals[:valFloor]
}

// unwind pops frames down to (but not past) frameFloor until a try/with
// handler is found; it reports whether one was.
func (m *Machine) unwind(frameFloor int) bool {
	for m.frameTop > frameFloor {
		f := &m.frames[m.frameTop-1]
		if n := len(f.handlers); n > 0 {
			h := f.handlers[n-1]
			f.handlers = f.handlers[:n-1]
			m.vals = m.vals[:h.sp]
			f.ip = h.target
			f.naive = h.naive
			return true
		}
		m.vals = m.vals[:f.retBase]
		m.frameTop--
	}
	return false
}

// icache is the inline cache of one q.str_sub site, allocated per linked
// module (sites are assigned by the optimizer, counted in Object.NICSites):
// a two-way cache of String.sub results, so repeated extraction of the same
// header bytes — the destination-locality pattern of real frame streams —
// reuses one boxed value instead of re-boxing per frame. A hit compares the
// string contents, and boxed strings are immutable, so a hit can never be
// stale and nothing ever needs flushing.
type icache struct {
	s1, s2 string
	b1, b2 Value
}

// icAt returns the inline-cache slot idx of mod, or nil when the module
// carries no such site (hand-built objects that were never verified).
func icAt(mod *LinkedModule, idx int) *icache {
	if idx >= 0 && idx < len(mod.ics) {
		return &mod.ics[idx]
	}
	return nil
}

// boxSub boxes a String.sub result: strings of at most two bytes from the
// shared table, longer ones through the site's cache when it has one.
func (m *Machine) boxSub(ic *icache, sub string) Value {
	switch {
	case len(sub) <= 2:
		return shortStr(sub)
	case ic == nil:
		return m.strBox.Box(sub)
	case ic.b1 != nil && ic.s1 == sub:
		return ic.b1
	case ic.b2 != nil && ic.s2 == sub:
		ic.s1, ic.s2 = ic.s2, ic.s1
		ic.b1, ic.b2 = ic.b2, ic.b1
		return ic.b1
	}
	res := m.strBox.Box(sub)
	ic.s2, ic.b2 = ic.s1, ic.b1
	ic.s1, ic.b1 = sub, res
	return res
}

// run executes a closure with exactly-matching arguments. Fuel and step
// counts are mirrored into locals (registers) for the duration of the
// loop and flushed around every call-out, so the per-instruction cost is a
// register decrement while Machine.Steps stays exact at every point native
// code can observe it.
//
// The loop is two-level: the outer frames loop re-derives the current
// frame, its module and its code stream; the inner loop executes
// instructions. Anything that can change the frame, the tier, or
// reallocate the frame pool (calls, returns, unwinds, deoptimization,
// native call-outs) continues the outer loop.
func (m *Machine) run(clo *Closure, args []Value) (Value, error) {
	frameFloor := m.frameTop
	valFloor := len(m.vals)
	defer m.restore(frameFloor, valFloor)

	if m.frameTop-frameFloor >= m.MaxFrames {
		return nil, &Trap{Msg: "call stack overflow"}
	}
	m.vals = append(m.vals, args...)
	m.pushFrame(clo, len(args), valFloor)

	fuel := m.fuel
	var steps uint64

frames:
	for {
		f := &m.frames[m.frameTop-1]
		chunk := f.clo.Chunk
		mod := f.clo.Mod
		code := chunk.Code
		tier := 0
		if chunk.Quick != nil && !f.naive {
			code = chunk.Quick
			tier = 1
		}
		m.TierEnters[tier]++
		for {
			if f.ip >= len(code) {
				m.fuel, m.Steps = fuel, m.Steps+steps
				return nil, &Trap{Msg: "fell off end of chunk " + chunk.Name}
			}
			ins := &code[f.ip]
			f.ip++
			// Branchless max(W, 1): unquickened instructions carry W == 0.
			w := uint64(ins.W)
			w += (w - 1) >> 63 & 1
			if fuel < w {
				if w == 1 || chunk.quickSrc == nil {
					m.fuel, m.Steps = 0, m.Steps+steps
					return nil, &Trap{Msg: ErrFuel.Error()}
				}
				// Fuel starvation inside a superinstruction: deoptimize so
				// the remaining fuel is consumed one wire instruction at a
				// time, making the exhaustion point identical to -O0.
				m.deopt(f, chunk, "fuel")
				continue frames
			}
			fuel -= w
			steps += w

			var trapErr *Trap
			switch ins.Op {
			case opNop:
			case opConstInt:
				// Slab-box wide constants: a hot loop pushing a literal
				// outside the small-int cache must not pay one heap cell
				// per push.
				m.vals = append(m.vals, m.boxI(ins.A))
			case opConstStr:
				m.vals = append(m.vals, mod.Obj.strVals[ins.A])
			case opConstBool:
				m.vals = append(m.vals, boxBool(ins.A != 0))
			case opConstUnit:
				m.vals = append(m.vals, valUnit)
			case opLocalGet:
				m.vals = append(m.vals, m.vals[f.base+int(ins.A)])
			case opLocalSet:
				m.vals[f.base+int(ins.A)] = m.pop(f.opBase)
			case opCaptureGet:
				if int(ins.A) >= len(f.clo.Caps) {
					trapErr = &Trap{Msg: "capture index out of range"}
					break
				}
				m.vals = append(m.vals, f.clo.Caps[ins.A])
			case opGlobalGet:
				m.vals = append(m.vals, mod.Globals[ins.A])
			case opGlobalSet:
				mod.Globals[ins.A] = m.pop(f.opBase)
			case opImportGet:
				m.vals = append(m.vals, mod.Imports[ins.A])
			case opClosure:
				spec := mod.Obj.CapSpecs[ins.B]
				caps := make([]Value, len(spec))
				nc := &Closure{Mod: mod, Chunk: mod.Obj.Chunks[ins.A]}
				for i, c := range spec {
					switch c.Kind {
					case capLocal:
						if f.base+int(c.Idx) >= f.opBase {
							trapErr = &Trap{Msg: "capture refers past frame locals"}
							break
						}
						caps[i] = m.vals[f.base+int(c.Idx)]
					case capCapture:
						if int(c.Idx) >= len(f.clo.Caps) {
							trapErr = &Trap{Msg: "capture refers past closure environment"}
							break
						}
						caps[i] = f.clo.Caps[c.Idx]
					case capSelf:
						caps[i] = nc
					case capFrameSelf:
						caps[i] = f.clo
					}
				}
				if trapErr != nil {
					break
				}
				nc.Caps = caps
				m.AllocBytes += uint64(32 + 16*len(caps))
				m.vals = append(m.vals, nc)
			case opCall, opTailCall:
				n := int(ins.A)
				if len(m.vals)-f.opBase < n+1 {
					trapErr = &Trap{Msg: "operand stack underflow"}
					break
				}
				fnv := m.vals[len(m.vals)-n-1]
				if c, ok := fnv.(*Closure); ok && c.Chunk.NParams == n {
					if ins.Op == opTailCall && len(f.handlers) == 0 {
						// Reuse the current frame slot: slide the arguments
						// down over the old locals and rebind.
						copy(m.vals[f.base:], m.vals[len(m.vals)-n:])
						m.vals = m.vals[:f.base+n]
						for i := n; i < c.Chunk.NLocals; i++ {
							m.vals = append(m.vals, nil)
						}
						f.clo = c
						f.opBase = f.base + c.Chunk.NLocals
						f.ip = 0
						f.naive = false
						continue frames
					}
					if m.frameTop-frameFloor >= m.MaxFrames {
						trapErr = &Trap{Msg: "call stack overflow"}
						break
					}
					// The arguments on the arena top become the callee's
					// first locals in place; the callee slot below them is
					// reclaimed when the frame returns (retBase).
					m.pushFrame(c, n, len(m.vals)-n-1)
					continue frames
				}
				if nat, ok := fnv.(*Native); ok && nat.Arity == n {
					// Direct native call: the arguments are passed as a view
					// of the arena top (natives must not retain the slice).
					m.fuel, m.Steps = fuel, m.Steps+steps
					steps = 0
					res, err := nat.Fn(m.nativeCtx(), m.vals[len(m.vals)-n:])
					fuel = m.fuel
					m.vals = m.vals[:len(m.vals)-n-1]
					if err != nil {
						var t *Trap
						if errors.As(err, &t) {
							trapErr = t
						} else {
							m.fuel = fuel
							return nil, err
						}
					} else if ins.Op == opTailCall {
						m.vals = m.vals[:f.retBase]
						m.frameTop--
						if m.frameTop == frameFloor {
							m.fuel, m.Steps = fuel, m.Steps+steps
							return res, nil
						}
						m.vals = append(m.vals, res)
						continue frames
					} else {
						m.vals = append(m.vals, res)
						// The native may have run switchlet code via Ctx,
						// growing the frame pool; re-derive the frame.
						if trapErr == nil {
							continue frames
						}
					}
					break
				}
				// Slow path: partials, arity mismatches, non-functions. No
				// bundled switchlet reaches it, so the arguments get a
				// fresh copy (apply re-enters run, which reuses the arena).
				cargs := append([]Value(nil), m.vals[len(m.vals)-n:]...)
				m.vals = m.vals[:len(m.vals)-n-1]
				m.fuel, m.Steps = fuel, m.Steps+steps
				steps = 0
				res, err := m.apply(fnv, cargs)
				fuel = m.fuel
				if err != nil {
					var t *Trap
					if errors.As(err, &t) {
						trapErr = t
						break
					}
					m.fuel = fuel
					return nil, err
				}
				if ins.Op == opTailCall {
					// Return res from this frame.
					m.vals = m.vals[:f.retBase]
					m.frameTop--
					if m.frameTop == frameFloor {
						m.fuel, m.Steps = fuel, m.Steps+steps
						return res, nil
					}
					m.vals = append(m.vals, res)
					continue frames
				}
				m.vals = append(m.vals, res)
				continue frames
			case opReturn:
				res := m.pop(f.opBase)
				m.vals = m.vals[:f.retBase]
				m.frameTop--
				if m.frameTop == frameFloor {
					m.fuel, m.Steps = fuel, m.Steps+steps
					return res, nil
				}
				m.vals = append(m.vals, res)
				continue frames
			case opJump:
				f.ip += int(ins.A)
			case opJumpIfFalse:
				v := m.pop(f.opBase)
				b, ok := v.(bool)
				if !ok {
					trapErr = &Trap{Msg: "condition is not a boolean"}
					break
				}
				if !b {
					f.ip += int(ins.A)
				}
			case opJumpIfTrue:
				v := m.pop(f.opBase)
				b, ok := v.(bool)
				if !ok {
					trapErr = &Trap{Msg: "condition is not a boolean"}
					break
				}
				if b {
					f.ip += int(ins.A)
				}
			case opPop:
				m.pop(f.opBase)
			case opAdd, opSub, opMul, opDiv, opMod:
				b, ok1 := m.pop(f.opBase).(int64)
				a, ok2 := m.pop(f.opBase).(int64)
				if !ok1 || !ok2 {
					trapErr = &Trap{Msg: "arithmetic on non-integer"}
					break
				}
				var r int64
				switch ins.Op {
				case opAdd:
					r = a + b
				case opSub:
					r = a - b
				case opMul:
					r = a * b
				case opDiv:
					if b == 0 {
						trapErr = &Trap{Msg: "division by zero"}
					} else {
						r = a / b
					}
				case opMod:
					if b == 0 {
						trapErr = &Trap{Msg: "division by zero"}
					} else {
						r = a % b
					}
				}
				if trapErr == nil {
					m.vals = append(m.vals, m.boxI(r))
				}
			case opConcat:
				b, ok1 := m.pop(f.opBase).(string)
				a, ok2 := m.pop(f.opBase).(string)
				if !ok1 || !ok2 {
					trapErr = &Trap{Msg: "concatenation of non-strings"}
					break
				}
				m.AllocBytes += uint64(len(a) + len(b))
				m.vals = append(m.vals, m.concat(a, b))
			case opEq, opNe:
				b := m.pop(f.opBase)
				a := m.pop(f.opBase)
				eq, err := valueEq(a, b)
				if err != nil {
					trapErr = err.(*Trap)
					break
				}
				if ins.Op == opNe {
					eq = !eq
				}
				m.vals = append(m.vals, boxBool(eq))
			case opLt, opLe, opGt, opGe:
				b := m.pop(f.opBase)
				a := m.pop(f.opBase)
				c, err := valueCmp(a, b)
				if err != nil {
					trapErr = err.(*Trap)
					break
				}
				var r bool
				switch ins.Op {
				case opLt:
					r = c < 0
				case opLe:
					r = c <= 0
				case opGt:
					r = c > 0
				case opGe:
					r = c >= 0
				}
				m.vals = append(m.vals, boxBool(r))
			case opNot:
				v, ok := m.pop(f.opBase).(bool)
				if !ok {
					trapErr = &Trap{Msg: "not of non-boolean"}
					break
				}
				m.vals = append(m.vals, boxBool(!v))
			case opNeg:
				v, ok := m.pop(f.opBase).(int64)
				if !ok {
					trapErr = &Trap{Msg: "negation of non-integer"}
					break
				}
				m.vals = append(m.vals, m.boxI(-v))
			case opTuple:
				n := int(ins.A)
				if len(m.vals)-f.opBase < n {
					trapErr = &Trap{Msg: "operand stack underflow"}
					break
				}
				if n < 2 || n > 4 {
					// The verifier admits no other arity; a hand-built
					// chunk gets a trap, not a panic.
					trapErr = &Trap{Msg: fmt.Sprintf("tuple arity %d", n)}
					break
				}
				if m.slabOff+n > len(m.tupleSlab) {
					m.tupleSlab = make([]Value, tupleSlabSize)
					m.slabOff = 0
				}
				t := m.tupleSlab[m.slabOff : m.slabOff+n : m.slabOff+n]
				m.slabOff += n
				copy(t, m.vals[len(m.vals)-n:])
				m.vals = m.vals[:len(m.vals)-n]
				m.AllocBytes += uint64(16 * n)
				var tv Value
				switch n {
				case 2:
					tv = (*[2]Value)(t)
				case 3:
					tv = (*[3]Value)(t)
				default:
					tv = (*[4]Value)(t)
				}
				m.vals = append(m.vals, tv)
			case opTupleGet:
				t, ok := tupleOf(m.pop(f.opBase))
				if !ok || int(ins.A) >= len(t) {
					trapErr = &Trap{Msg: "tuple projection error"}
					break
				}
				m.vals = append(m.vals, t[ins.A])
			case opRaise:
				msg, ok := m.pop(f.opBase).(string)
				if !ok {
					msg = "raise"
				}
				trapErr = &Trap{Msg: msg}
			case opPushHandler:
				f.handlers = append(f.handlers, handler{sp: len(m.vals), target: f.ip + int(ins.A), naive: f.naive})
			case opPopHandler:
				if n := len(f.handlers); n > 0 {
					f.handlers = f.handlers[:n-1]
				}
			case opRefGet:
				r, ok := m.pop(f.opBase).(*Ref)
				if !ok {
					trapErr = &Trap{Msg: "dereference of non-reference"}
					break
				}
				m.vals = append(m.vals, r.V)
			case opRefSet:
				v := m.pop(f.opBase)
				r, ok := m.pop(f.opBase).(*Ref)
				if !ok {
					trapErr = &Trap{Msg: "assignment to non-reference"}
					break
				}
				r.V = v
				m.vals = append(m.vals, valUnit)

			// ---- quickened opcodes (never on the wire; see optimize.go) ----

			case qGetGet:
				m.vals = append(m.vals, m.vals[f.base+int(ins.A)], m.vals[f.base+int(ins.B)])
			case qCmpJf:
				b := m.pop(f.opBase)
				a := m.pop(f.opBase)
				take, err := cmpBranch(a, b, byte(ins.B))
				if err != nil {
					// At -O0 the compare consumed its step and the branch
					// never ran; give back the branch's share.
					fuel++
					steps--
					trapErr = err
					break
				}
				if !take {
					f.ip += int(ins.A)
				}
			case qGGCmpJf:
				bb := uint32(ins.B)
				a := m.vals[f.base+int(bb&0xfff)]
				b := m.vals[f.base+int((bb>>12)&0xfff)]
				take, err := cmpBranch(a, b, byte(bb>>24))
				if err != nil {
					fuel++
					steps--
					trapErr = err
					break
				}
				if !take {
					f.ip += int(ins.A)
				}
			case qIncL:
				slot := f.base + int(ins.A)
				v, ok := m.vals[slot].(int64)
				if !ok {
					// -O0 ran get/const/add (3 steps) before trapping; the
					// final set never executed.
					fuel++
					steps--
					trapErr = &Trap{Msg: "arithmetic on non-integer"}
					break
				}
				m.vals[slot] = m.boxI(v + int64(ins.B))
			case qGetFieldSet:
				bb := uint32(ins.B)
				t, ok := tupleOf(m.vals[f.base+int(ins.A)])
				idx := int(bb & 0xff)
				if !ok || idx >= len(t) {
					fuel++
					steps--
					trapErr = &Trap{Msg: "tuple projection error"}
					break
				}
				m.vals[f.base+int(bb>>8)] = t[idx]
			case qConcatN:
				// Fold the top A+1 strings once. Each wire concat j (from
				// the top down) would have charged its left operand plus
				// the suffix already built, so the metering sums those.
				k := int(ins.A)
				top := len(m.vals)
				n, charge, ok := 0, uint64(0), top-f.opBase > k
				for j := top - 1; ok && j >= top-k-1; j-- {
					s, isStr := m.vals[j].(string)
					if j < top-1 {
						charge += uint64(len(s) + n)
					}
					n += len(s)
					ok = isStr
				}
				if !ok {
					// A non-string operand (or, in an unverified chunk, too
					// few): replay the wire concats so -O0's trap fires at
					// the same concat with the same steps and metering.
					if chunk.quickSrc == nil {
						trapErr = &Trap{Msg: "fused concat with no deopt map"}
						break
					}
					fuel += w
					steps -= w
					m.deopt(f, chunk, "concat-type")
					continue frames
				}
				var res Value
				if n <= 2 {
					var pair [2]byte
					off := 0
					for _, v := range m.vals[top-k-1:] {
						off += copy(pair[off:], v.(string))
					}
					res = shortStr(string(pair[:n]))
				} else {
					buf := m.newStr(n)
					off := 0
					for _, v := range m.vals[top-k-1:] {
						off += copy(buf[off:], v.(string))
					}
					res = m.sealStr(buf)
				}
				m.vals = m.vals[:top-k-1]
				m.AllocBytes += charge
				m.vals = append(m.vals, res)
			case qStrSub, qStrGet, qHtblFind, qHtblMem, qHtblAdd:
				n := int(ins.A & 0xff)
				if len(m.vals)-f.opBase < n+1 {
					trapErr = &Trap{Msg: "operand stack underflow"}
					break
				}
				fnv := m.vals[len(m.vals)-n-1]
				nat, ok := fnv.(*Native)
				if !ok || nat.op != ins.Op || nat.Arity != n {
					// Mispredicted callee: replay as the generic wire call.
					if chunk.quickSrc == nil {
						trapErr = &Trap{Msg: "specialized call mispredicted with no deopt map"}
						break
					}
					fuel += w
					steps -= w
					m.deopt(f, chunk, "call-mispredict")
					continue frames
				}
				// The native's own body. No inlinedNatives body runs
				// switchlet code or reads Steps, so fuel and steps stay in
				// registers.
				args := m.vals[len(m.vals)-n:]
				var res Value
				var err error
				if ins.Op == qStrSub {
					var sub string
					if sub, err = strSub(m, args); err == nil {
						res = m.boxSub(icAt(mod, int(ins.A>>8)), sub)
					}
				} else {
					res, err = inlinedNatives[ins.Op-qStrSub].fn(m.nativeCtx(), args)
				}
				// Match the wire native path: truncate the callee and
				// arguments before inspecting the error.
				m.vals = m.vals[:len(m.vals)-n-1]
				if err != nil {
					trapErr = err.(*Trap)
					break
				}
				m.vals = append(m.vals, res)

			default:
				m.fuel, m.Steps = fuel, m.Steps+steps
				return nil, &Trap{Msg: fmt.Sprintf("bad opcode %d", ins.Op)}
			}

			if trapErr != nil {
				if !m.unwind(frameFloor) {
					m.fuel, m.Steps = fuel, m.Steps+steps
					return nil, trapErr
				}
				continue frames
			}
		}
	}
}

// deopt switches f from the quickened stream to the wire code, at the wire
// pc of the quickened instruction it just fetched. The caller has already
// given back that instruction's fuel and steps (or never charged them).
func (m *Machine) deopt(f *frameSlot, chunk *Chunk, reason string) {
	f.ip = int(chunk.quickSrc[f.ip-1])
	f.naive = true
	if m.Trace != nil {
		m.Trace.TraceDeopt(reason)
	}
}

// cmpBranch evaluates one fused compare-and-branch: it returns whether the
// comparison held (branch falls through) using the same valueEq/valueCmp
// split — and therefore the same trap behavior — as the unfused opcodes.
func cmpBranch(a, b Value, cmpOp byte) (bool, *Trap) {
	if cmpOp == opEq || cmpOp == opNe {
		eq, err := valueEq(a, b)
		if err != nil {
			return false, err.(*Trap)
		}
		return eq != (cmpOp == opNe), nil
	}
	c, err := valueCmp(a, b)
	if err != nil {
		return false, err.(*Trap)
	}
	switch cmpOp {
	case opLt:
		return c < 0, nil
	case opLe:
		return c <= 0, nil
	case opGt:
		return c > 0, nil
	case opGe:
		return c >= 0, nil
	}
	return false, &Trap{Msg: fmt.Sprintf("bad comparison opcode %d", cmpOp)}
}

// pop removes and returns the top of the current operand stack. The
// compiler guarantees balance; VerifyObject guards slot indices; a nil fallback
// keeps a corrupted object from panicking the host.
func (m *Machine) pop(opBase int) Value {
	if len(m.vals) <= opBase {
		return nil
	}
	v := m.vals[len(m.vals)-1]
	m.vals = m.vals[:len(m.vals)-1]
	return v
}

// LinkedModule is a loaded, linked switchlet: its object code, resolved
// import values and global slots.
type LinkedModule struct {
	Obj     *Object
	Export  *Signature
	Globals []Value
	Imports []Value

	// ics holds the module's q.str_sub cache sites (Object.NICSites of
	// them).
	ics []icache
}

// Global returns the value of an exported binding.
func (lm *LinkedModule) Global(name string) (Value, bool) {
	slot, ok := lm.Obj.GlobalNames[name]
	if !ok {
		return nil, false
	}
	return lm.Globals[slot], true
}
