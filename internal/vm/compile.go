package vm

import (
	"crypto/md5"
	"fmt"
)

// Compile parses, type checks, and compiles swl source into an object file
// linked against the given signature environment (the thinned "available
// units" of the loader). The returned signature is the module's export
// interface; its digest is embedded in the object. Compilation runs the
// optimizing tier (level 1); the wire format carries only the naive code,
// so the emitted .swo is identical at every level.
func Compile(modName, src string, sigs *SigEnv) (*Object, *Signature, error) {
	return CompileLevel(modName, src, sigs, 1)
}

// CompileLevel compiles at an explicit optimization level: 0 emits the
// naive bytecode only, 1 additionally quickens it in memory
// (superinstructions and inline caches — see optimize.go). Levels never
// change what the switchlet computes or how its execution is metered.
func CompileLevel(modName, src string, sigs *SigEnv, level int) (*Object, *Signature, error) {
	mod, err := ParseModule(modName, src)
	if err != nil {
		return nil, nil, err
	}
	export, err := InferModule(mod, sigs)
	if err != nil {
		return nil, nil, err
	}
	obj, err := codegen(mod, export, sigs)
	if err != nil {
		return nil, nil, err
	}
	// Every compiled object must pass the same static verification a
	// decoded one would: the verifier both defends against codegen bugs
	// and earns the object its verified bit (see Object.Verified).
	if _, err := VerifyObject(obj); err != nil {
		return nil, nil, fmt.Errorf("vm: compiler emitted unverifiable code: %w", err)
	}
	if level > 0 {
		OptimizeObject(obj, true)
	}
	return obj, export, nil
}

// importEntry is one resolved external name.
type importEntry struct {
	module, name string
}

type cg struct {
	obj            *Object
	sigs           *SigEnv
	globals        map[string]int
	strIdx         map[string]int
	importIdx      map[importEntry]int
	importList     []importEntry
	nextGlobalSlot int
}

// fnCG is per-function compilation state.
type fnCG struct {
	cg       *cg
	parent   *fnCG
	chunk    *Chunk
	caps     []CaptureRef
	capNames []string
	// bindings is a scope stack: lookup scans backwards.
	bindings []binding
	// selfName resolves to the function's own closure (let rec).
	selfName string
}

type binding struct {
	name string
	slot int
}

// resolution describes where a name lives.
type resolution struct {
	kind byte // 'l' local, 'c' capture, 'g' global, 'i' import, 's' frame-self
	idx  int
}

func codegen(mod *Module, export *Signature, sigs *SigEnv) (*Object, error) {
	g := &cg{
		obj: &Object{
			ModName:     mod.Name,
			GlobalNames: map[string]int{},
		},
		sigs:      sigs,
		globals:   map[string]int{},
		strIdx:    map[string]int{},
		importIdx: map[importEntry]int{},
	}

	init := &fnCG{cg: g, chunk: &Chunk{Name: mod.Name + ".<init>"}}

	// Pre-assign global slots so that top-level recursion and forward
	// references within a binding body work; shadowing re-binds the name
	// to a new slot at its definition point, so we assign lazily below.
	for _, top := range mod.Tops {
		bound := top.Bound
		if len(top.Params) > 0 {
			bound = &Fun{Pos: top.Bound.exprPos(), Params: top.Params, Body: top.Bound}
		}
		if top.Name != "_" && top.Rec {
			// Make the slot visible to the bound expression itself.
			g.globals[top.Name] = g.newGlobal(top.Name)
		}
		if err := init.expr(bound, false); err != nil {
			return nil, err
		}
		if top.Name == "_" {
			init.emit(Instr{Op: opPop})
			continue
		}
		slot, ok := g.globals[top.Name]
		if !ok || !top.Rec {
			slot = g.newGlobal(top.Name)
			g.globals[top.Name] = slot
		}
		init.emit(Instr{Op: opGlobalSet, A: int64(slot)})
	}
	init.emit(Instr{Op: opConstUnit})
	init.emit(Instr{Op: opReturn})
	g.obj.Chunks = append(g.obj.Chunks, init.chunk)
	g.obj.Init = len(g.obj.Chunks) - 1

	// Export table: the last binding of each name wins (shadowing).
	for name, slot := range g.globals { //ab:mapiter-ok map-to-map copy; order cannot escape
		g.obj.GlobalNames[name] = slot
	}
	g.obj.NGlobals = g.nextGlobalSlot

	// Imports.
	for _, e := range g.importList {
		sig, _ := sigs.Lookup(e.module)
		g.obj.Imports = append(g.obj.Imports, ImportRef{
			Module: e.module,
			Digest: SigDigest(sig),
			Names:  []string{e.name},
		})
	}

	g.obj.ExportText = export.Canonical()
	g.obj.ExportDigest = md5.Sum([]byte(g.obj.ExportText))
	return g.obj, nil
}

// newGlobal allocates a module-level slot.
func (g *cg) newGlobal(string) int {
	s := g.nextGlobalSlot
	g.nextGlobalSlot++
	return s
}

func (f *fnCG) emit(i Instr) int {
	f.chunk.Code = append(f.chunk.Code, i)
	return len(f.chunk.Code) - 1
}

// patch sets the relative jump operand of the instruction at pos to land at
// the current end of code.
func (f *fnCG) patch(pos int) {
	f.chunk.Code[pos].A = int64(len(f.chunk.Code) - pos - 1)
}

func (f *fnCG) here() int { return len(f.chunk.Code) }

func (f *fnCG) strConst(s string) int64 {
	if i, ok := f.cg.strIdx[s]; ok {
		return int64(i)
	}
	i := len(f.cg.obj.StrPool)
	f.cg.obj.StrPool = append(f.cg.obj.StrPool, s)
	f.cg.strIdx[s] = i
	return int64(i)
}

func (f *fnCG) newLocal(name string) int {
	slot := f.chunk.NLocals
	f.chunk.NLocals++
	if name != "" && name != "_" && name != "()" {
		f.bindings = append(f.bindings, binding{name: name, slot: slot})
	}
	return slot
}

// scopeMark/scopeRestore bracket a lexical scope.
func (f *fnCG) scopeMark() int        { return len(f.bindings) }
func (f *fnCG) scopeRestore(mark int) { f.bindings = f.bindings[:mark] }

// resolveLocal finds name among this function's bindings or its self-name.
func (f *fnCG) resolveLocal(name string) (resolution, bool) {
	for i := len(f.bindings) - 1; i >= 0; i-- {
		if f.bindings[i].name == name {
			return resolution{kind: 'l', idx: f.bindings[i].slot}, true
		}
	}
	if name == f.selfName && name != "" {
		return resolution{kind: 's'}, true
	}
	return resolution{}, false
}

// addCapture installs (or reuses) a capture of the given parent resolution.
// Kinds: 'l' and 'c' come from the parent's locals/captures; 's' means the
// parent resolves the name as *its own* recursion point (so at closure
// construction time the parent frame's running closure is the value);
// 'S' means the name is this function's own recursion point (the closure
// being constructed captures itself).
func (f *fnCG) addCapture(name string, parentRes resolution) int {
	for i, n := range f.capNames {
		if n == name {
			return i
		}
	}
	var ref CaptureRef
	switch parentRes.kind {
	case 'l':
		ref = CaptureRef{Kind: capLocal, Idx: uint16(parentRes.idx)}
	case 'c':
		ref = CaptureRef{Kind: capCapture, Idx: uint16(parentRes.idx)}
	case 's':
		ref = CaptureRef{Kind: capFrameSelf}
	case 'S':
		ref = CaptureRef{Kind: capSelf}
	}
	f.caps = append(f.caps, ref)
	f.capNames = append(f.capNames, name)
	return len(f.caps) - 1
}

// resolve locates an unqualified name: locals, then enclosing functions
// (creating capture chains), then module globals, then the implicit
// Safestd module.
func (f *fnCG) resolve(name string) (resolution, bool) {
	if r, ok := f.resolveLocal(name); ok {
		return r, true
	}
	if f.parent != nil {
		if pr, ok := f.parent.resolve(name); ok {
			switch pr.kind {
			case 'l', 'c', 's':
				return resolution{kind: 'c', idx: f.addCapture(name, pr)}, true
			default:
				return pr, true // globals/imports need no capture
			}
		}
		return resolution{}, false
	}
	if slot, ok := f.cg.globals[name]; ok {
		return resolution{kind: 'g', idx: slot}, true
	}
	if imp, ok := f.cg.sigs.Lookup(f.cg.sigs.Implicit); ok {
		if _, ok := imp.Lookup(name); ok {
			return resolution{kind: 'i', idx: f.cg.importSlot(f.cg.sigs.Implicit, name)}, true
		}
	}
	return resolution{}, false
}

func (g *cg) importSlot(module, name string) int {
	e := importEntry{module, name}
	if i, ok := g.importIdx[e]; ok {
		return i
	}
	i := len(g.importList)
	g.importList = append(g.importList, e)
	g.importIdx[e] = i
	return i
}

// expr compiles e; if tail is set, applications become tail calls and the
// expression's value is the function result.
func (f *fnCG) expr(e Expr, tail bool) error {
	switch v := e.(type) {
	case *IntLit:
		f.emit(Instr{Op: opConstInt, A: v.Val})
	case *StrLit:
		f.emit(Instr{Op: opConstStr, A: f.strConst(v.Val)})
	case *BoolLit:
		a := int64(0)
		if v.Val {
			a = 1
		}
		f.emit(Instr{Op: opConstBool, A: a})
	case *UnitLit:
		f.emit(Instr{Op: opConstUnit})
	case *Var:
		return f.compileVar(v)
	case *TupleExpr:
		for _, el := range v.Elems {
			if err := f.expr(el, false); err != nil {
				return err
			}
		}
		f.emit(Instr{Op: opTuple, A: int64(len(v.Elems))})
	case *Apply:
		if err := f.expr(v.Fn, false); err != nil {
			return err
		}
		for _, a := range v.Args {
			if err := f.expr(a, false); err != nil {
				return err
			}
		}
		op := opCall
		if tail {
			op = opTailCall
		}
		f.emit(Instr{Op: op, A: int64(len(v.Args))})
	case *Binop:
		return f.compileBinop(v)
	case *Unop:
		if err := f.expr(v.E, false); err != nil {
			return err
		}
		switch v.Op {
		case "-":
			f.emit(Instr{Op: opNeg})
		case "not":
			f.emit(Instr{Op: opNot})
		case "!":
			f.emit(Instr{Op: opRefGet})
		default:
			return fmt.Errorf("vm: unknown unary %s", v.Op)
		}
	case *If:
		if err := f.expr(v.Cond, false); err != nil {
			return err
		}
		jElse := f.emit(Instr{Op: opJumpIfFalse})
		if err := f.expr(v.Then, tail); err != nil {
			return err
		}
		jEnd := f.emit(Instr{Op: opJump})
		f.patch(jElse)
		if v.Else != nil {
			if err := f.expr(v.Else, tail); err != nil {
				return err
			}
		} else {
			f.emit(Instr{Op: opConstUnit})
		}
		f.patch(jEnd)
	case *While:
		start := f.here()
		if err := f.expr(v.Cond, false); err != nil {
			return err
		}
		jEnd := f.emit(Instr{Op: opJumpIfFalse})
		if err := f.expr(v.Body, false); err != nil {
			return err
		}
		f.emit(Instr{Op: opPop})
		back := f.emit(Instr{Op: opJump})
		f.chunk.Code[back].A = int64(start - back - 1)
		f.patch(jEnd)
		f.emit(Instr{Op: opConstUnit})
	case *For:
		mark := f.scopeMark()
		if err := f.expr(v.Lo, false); err != nil {
			return err
		}
		iSlot := f.newLocal(v.Var)
		f.emit(Instr{Op: opLocalSet, A: int64(iSlot)})
		if err := f.expr(v.Hi, false); err != nil {
			return err
		}
		hiSlot := f.newLocal("")
		f.emit(Instr{Op: opLocalSet, A: int64(hiSlot)})
		start := f.here()
		f.emit(Instr{Op: opLocalGet, A: int64(iSlot)})
		f.emit(Instr{Op: opLocalGet, A: int64(hiSlot)})
		f.emit(Instr{Op: opLe})
		jEnd := f.emit(Instr{Op: opJumpIfFalse})
		if err := f.expr(v.Body, false); err != nil {
			return err
		}
		f.emit(Instr{Op: opPop})
		f.emit(Instr{Op: opLocalGet, A: int64(iSlot)})
		f.emit(Instr{Op: opConstInt, A: 1})
		f.emit(Instr{Op: opAdd})
		f.emit(Instr{Op: opLocalSet, A: int64(iSlot)})
		back := f.emit(Instr{Op: opJump})
		f.chunk.Code[back].A = int64(start - back - 1)
		f.patch(jEnd)
		f.emit(Instr{Op: opConstUnit})
		f.scopeRestore(mark)
	case *Seq:
		if err := f.expr(v.L, false); err != nil {
			return err
		}
		f.emit(Instr{Op: opPop})
		return f.expr(v.R, tail)
	case *Let:
		mark := f.scopeMark()
		bound := v.Bound
		if len(v.Params) > 0 {
			bound = &Fun{Pos: v.Bound.exprPos(), Params: v.Params, Body: v.Bound}
		}
		if v.Rec {
			fun, ok := bound.(*Fun)
			if !ok {
				return fmt.Errorf("vm: let rec requires a function at %v", v.Pos)
			}
			if err := f.closure(fun, v.Name); err != nil {
				return err
			}
		} else {
			if err := f.expr(bound, false); err != nil {
				return err
			}
		}
		slot := f.newLocal(v.Name)
		f.emit(Instr{Op: opLocalSet, A: int64(slot)})
		if err := f.expr(v.Body, tail); err != nil {
			return err
		}
		f.scopeRestore(mark)
	case *LetTuple:
		mark := f.scopeMark()
		if err := f.expr(v.Bound, false); err != nil {
			return err
		}
		tmp := f.newLocal("")
		f.emit(Instr{Op: opLocalSet, A: int64(tmp)})
		for i, n := range v.Names {
			if n == "_" {
				continue
			}
			f.emit(Instr{Op: opLocalGet, A: int64(tmp)})
			f.emit(Instr{Op: opTupleGet, A: int64(i)})
			slot := f.newLocal(n)
			f.emit(Instr{Op: opLocalSet, A: int64(slot)})
		}
		if err := f.expr(v.Body, tail); err != nil {
			return err
		}
		f.scopeRestore(mark)
	case *Fun:
		return f.closure(v, "")
	case *Try:
		jHandler := f.emit(Instr{Op: opPushHandler})
		if err := f.expr(v.Body, false); err != nil {
			return err
		}
		f.emit(Instr{Op: opPopHandler})
		jEnd := f.emit(Instr{Op: opJump})
		f.patch(jHandler)
		if err := f.expr(v.Handler, tail); err != nil {
			return err
		}
		f.patch(jEnd)
	case *Raise:
		if err := f.expr(v.Msg, false); err != nil {
			return err
		}
		f.emit(Instr{Op: opRaise})
		// opRaise never pushes; keep stack shape consistent for the
		// checker-free interpreter by emitting an unreachable unit.
		f.emit(Instr{Op: opConstUnit})
	default:
		return fmt.Errorf("vm: cannot compile %T", e)
	}
	return nil
}

func (f *fnCG) compileVar(v *Var) error {
	if v.Module != "" {
		sig, ok := f.cg.sigs.Lookup(v.Module)
		if !ok {
			return fmt.Errorf("vm: unknown module %s at %v", v.Module, v.Pos)
		}
		if _, ok := sig.Lookup(v.Name); !ok {
			return fmt.Errorf("vm: module %s has no value %s at %v", v.Module, v.Name, v.Pos)
		}
		f.emit(Instr{Op: opImportGet, A: int64(f.cg.importSlot(v.Module, v.Name))})
		return nil
	}
	r, ok := f.resolve(v.Name)
	if !ok {
		return fmt.Errorf("vm: unbound name %s at %v", v.Name, v.Pos)
	}
	switch r.kind {
	case 'l':
		f.emit(Instr{Op: opLocalGet, A: int64(r.idx)})
	case 'c':
		f.emit(Instr{Op: opCaptureGet, A: int64(r.idx)})
	case 'g':
		f.emit(Instr{Op: opGlobalGet, A: int64(r.idx)})
	case 'i':
		f.emit(Instr{Op: opImportGet, A: int64(r.idx)})
	case 's':
		// Direct self-reference inside the function being compiled: the
		// closure captures itself (capSelf) at construction time.
		f.emit(Instr{Op: opCaptureGet, A: int64(f.addCapture(v.Name, resolution{kind: 'S'}))})
	}
	return nil
}

func (f *fnCG) compileBinop(v *Binop) error {
	switch v.Op {
	case "&&":
		if err := f.expr(v.L, false); err != nil {
			return err
		}
		jF := f.emit(Instr{Op: opJumpIfFalse})
		if err := f.expr(v.R, false); err != nil {
			return err
		}
		jEnd := f.emit(Instr{Op: opJump})
		f.patch(jF)
		f.emit(Instr{Op: opConstBool, A: 0})
		f.patch(jEnd)
		return nil
	case "||":
		if err := f.expr(v.L, false); err != nil {
			return err
		}
		jT := f.emit(Instr{Op: opJumpIfTrue})
		if err := f.expr(v.R, false); err != nil {
			return err
		}
		jEnd := f.emit(Instr{Op: opJump})
		f.patch(jT)
		f.emit(Instr{Op: opConstBool, A: 1})
		f.patch(jEnd)
		return nil
	case ":=":
		if err := f.expr(v.L, false); err != nil {
			return err
		}
		if err := f.expr(v.R, false); err != nil {
			return err
		}
		f.emit(Instr{Op: opRefSet})
		return nil
	}
	if err := f.expr(v.L, false); err != nil {
		return err
	}
	if err := f.expr(v.R, false); err != nil {
		return err
	}
	ops := map[string]byte{
		"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "mod": opMod,
		"^": opConcat, "=": opEq, "<>": opNe,
		"<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	}
	op, ok := ops[v.Op]
	if !ok {
		return fmt.Errorf("vm: unknown operator %s", v.Op)
	}
	f.emit(Instr{Op: op})
	return nil
}

// closure compiles fun into a fresh chunk and emits the opClosure that
// constructs it; selfName enables let rec self-reference.
func (f *fnCG) closure(fun *Fun, selfName string) error {
	child := &fnCG{
		cg:     f.cg,
		parent: f,
		chunk: &Chunk{
			Name:    fmt.Sprintf("%s.<fn@%v>", f.cg.obj.ModName, fun.Pos),
			NParams: len(fun.Params),
		},
		selfName: selfName,
	}
	if selfName != "" {
		child.chunk.Name = f.cg.obj.ModName + "." + selfName
	}
	for _, p := range fun.Params {
		child.newLocal(p)
	}
	if err := child.expr(fun.Body, true); err != nil {
		return err
	}
	child.emit(Instr{Op: opReturn})
	f.cg.obj.Chunks = append(f.cg.obj.Chunks, child.chunk)
	chunkIdx := len(f.cg.obj.Chunks) - 1
	specIdx := len(f.cg.obj.CapSpecs)
	f.cg.obj.CapSpecs = append(f.cg.obj.CapSpecs, child.caps)
	f.emit(Instr{Op: opClosure, A: int64(chunkIdx), B: int32(specIdx)})
	return nil
}
