package vm

import (
	"fmt"
	"sort"
)

// TypeError is a static type checking failure. In the paper's security
// model these errors are the first line of defence: a switchlet that names
// a thinned-out function or misuses an interface fails here, before any
// code is emitted.
type TypeError struct {
	Pos Pos
	Msg string
}

func (e *TypeError) Error() string { return fmt.Sprintf("type error at %v: %s", e.Pos, e.Msg) }

// SigEnv is the set of module signatures a compilation can see: the
// "available units" of the paper's Dynlink model, already thinned.
type SigEnv struct {
	mods map[string]*Signature
	// Implicit is the module opened for unqualified fallback lookups
	// (Safestd, per the paper's environment).
	Implicit string
}

// NewSigEnv creates an empty signature environment.
func NewSigEnv() *SigEnv { return &SigEnv{mods: map[string]*Signature{}, Implicit: "Safestd"} }

// Add makes a module signature available.
func (e *SigEnv) Add(sig *Signature) { e.mods[sig.Module] = sig }

// Lookup returns a module's signature.
func (e *SigEnv) Lookup(module string) (*Signature, bool) {
	s, ok := e.mods[module]
	return s, ok
}

// Modules returns the available module names, sorted (callers print and
// fingerprint this list).
func (e *SigEnv) Modules() []string {
	out := make([]string, 0, len(e.mods))
	for n := range e.mods { //ab:mapiter-ok keys are sorted below before use
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type inferer struct {
	nextID int
	sigs   *SigEnv
	// moduleBindings holds the current module's already-typed top-level
	// bindings (name -> scheme).
	moduleBindings map[string]*Scheme
}

func (in *inferer) newVar(level int) *TVar {
	in.nextID++
	return &TVar{ID: in.nextID, Level: level}
}

// instantiate replaces Generic variables with fresh variables at level.
func (in *inferer) instantiate(s *Scheme, level int) Type {
	seen := map[*TVar]*TVar{}
	var walk func(Type) Type
	walk = func(t Type) Type {
		t = prune(t)
		switch v := t.(type) {
		case *TVar:
			if !v.Generic {
				return v
			}
			n, ok := seen[v]
			if !ok {
				n = in.newVar(level)
				seen[v] = n
			}
			return n
		case *TFun:
			return &TFun{Arg: walk(v.Arg), Ret: walk(v.Ret)}
		case *TCon:
			if len(v.Args) == 0 {
				return v
			}
			args := make([]Type, len(v.Args))
			for i, a := range v.Args {
				args[i] = walk(a)
			}
			return &TCon{Name: v.Name, Args: args}
		}
		return t
	}
	return walk(s.Body)
}

// generalize marks variables deeper than level as quantified.
func generalize(t Type, level int) {
	t = prune(t)
	switch v := t.(type) {
	case *TVar:
		if v.Level > level {
			v.Generic = true
		}
	case *TFun:
		generalize(v.Arg, level)
		generalize(v.Ret, level)
	case *TCon:
		for _, a := range v.Args {
			generalize(a, level)
		}
	}
}

// occursAdjust performs the occurs check and lowers levels of variables in
// t to at most v.Level.
func occursAdjust(v *TVar, t Type) bool {
	t = prune(t)
	switch w := t.(type) {
	case *TVar:
		if w == v {
			return true
		}
		if w.Level > v.Level {
			w.Level = v.Level
		}
		return false
	case *TFun:
		return occursAdjust(v, w.Arg) || occursAdjust(v, w.Ret)
	case *TCon:
		for _, a := range w.Args {
			if occursAdjust(v, a) {
				return true
			}
		}
	}
	return false
}

func (in *inferer) unify(pos Pos, a, b Type) error {
	a, b = prune(a), prune(b)
	if a == b {
		return nil
	}
	if v, ok := a.(*TVar); ok {
		if occursAdjust(v, b) {
			return &TypeError{pos, "recursive type (occurs check failed)"}
		}
		v.Ref = b
		return nil
	}
	if _, ok := b.(*TVar); ok {
		return in.unify(pos, b, a)
	}
	switch x := a.(type) {
	case *TFun:
		y, ok := b.(*TFun)
		if !ok {
			return in.mismatch(pos, a, b)
		}
		if err := in.unify(pos, x.Arg, y.Arg); err != nil {
			return err
		}
		return in.unify(pos, x.Ret, y.Ret)
	case *TCon:
		y, ok := b.(*TCon)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return in.mismatch(pos, a, b)
		}
		for i := range x.Args {
			if err := in.unify(pos, x.Args[i], y.Args[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return in.mismatch(pos, a, b)
}

func (in *inferer) mismatch(pos Pos, a, b Type) error {
	return &TypeError{pos, fmt.Sprintf("cannot unify %s with %s", TypeString(a), TypeString(b))}
}

// scope is a lexical environment of monomorphic-or-polymorphic bindings.
type scope struct {
	parent *scope
	name   string
	scheme *Scheme
}

func (s *scope) bind(name string, sch *Scheme) *scope {
	return &scope{parent: s, name: name, scheme: sch}
}

func (s *scope) lookup(name string) (*Scheme, bool) {
	for e := s; e != nil; e = e.parent {
		if e.name == name {
			return e.scheme, true
		}
	}
	return nil, false
}

// isSyntacticValue implements the value restriction: only these expressions
// may be generalized at let.
func isSyntacticValue(e Expr) bool {
	switch v := e.(type) {
	case *IntLit, *StrLit, *BoolLit, *UnitLit, *Var, *Fun:
		return true
	case *TupleExpr:
		for _, el := range v.Elems {
			if !isSyntacticValue(el) {
				return false
			}
		}
		return true
	}
	return false
}

func (in *inferer) lookupVar(v *Var, env *scope, level int) (Type, error) {
	if v.Module == "" {
		if sch, ok := env.lookup(v.Name); ok {
			return in.instantiate(sch, level), nil
		}
		if sch, ok := in.moduleBindings[v.Name]; ok {
			return in.instantiate(sch, level), nil
		}
		if imp, ok := in.sigs.Lookup(in.sigs.Implicit); ok {
			if sch, ok := imp.Lookup(v.Name); ok {
				return in.instantiate(sch, level), nil
			}
		}
		return nil, &TypeError{v.Pos, fmt.Sprintf("unbound name %s", v.Name)}
	}
	sig, ok := in.sigs.Lookup(v.Module)
	if !ok {
		return nil, &TypeError{v.Pos, fmt.Sprintf("unknown module %s", v.Module)}
	}
	sch, ok := sig.Lookup(v.Name)
	if !ok {
		// The thinning error of the paper: the name exists in the real
		// module but is not in the thinned signature, so it is simply
		// unbound here.
		return nil, &TypeError{v.Pos, fmt.Sprintf("module %s has no value %s (or it is not exported)", v.Module, v.Name)}
	}
	return in.instantiate(sch, level), nil
}

func (in *inferer) infer(e Expr, env *scope, level int) (Type, error) {
	switch v := e.(type) {
	case *IntLit:
		return TInt, nil
	case *StrLit:
		return TString, nil
	case *BoolLit:
		return TBool, nil
	case *UnitLit:
		return TUnit, nil
	case *Var:
		return in.lookupVar(v, env, level)
	case *TupleExpr:
		args := make([]Type, len(v.Elems))
		for i, el := range v.Elems {
			t, err := in.infer(el, env, level)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		return TTuple(args...), nil
	case *Apply:
		fn, err := in.infer(v.Fn, env, level)
		if err != nil {
			return nil, err
		}
		for _, a := range v.Args {
			at, err := in.infer(a, env, level)
			if err != nil {
				return nil, err
			}
			res := in.newVar(level)
			if err := in.unify(v.Pos, fn, &TFun{Arg: at, Ret: res}); err != nil {
				return nil, err
			}
			fn = res
		}
		return fn, nil
	case *Binop:
		return in.inferBinop(v, env, level)
	case *Unop:
		t, err := in.infer(v.E, env, level)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "-":
			return TInt, in.unify(v.Pos, t, TInt)
		case "not":
			return TBool, in.unify(v.Pos, t, TBool)
		case "!":
			el := in.newVar(level)
			return el, in.unify(v.Pos, t, TRef(el))
		}
		return nil, &TypeError{v.Pos, "unknown unary operator " + v.Op}
	case *If:
		ct, err := in.infer(v.Cond, env, level)
		if err != nil {
			return nil, err
		}
		if err := in.unify(v.Pos, ct, TBool); err != nil {
			return nil, err
		}
		tt, err := in.infer(v.Then, env, level)
		if err != nil {
			return nil, err
		}
		if v.Else == nil {
			return TUnit, in.unify(v.Pos, tt, TUnit)
		}
		et, err := in.infer(v.Else, env, level)
		if err != nil {
			return nil, err
		}
		return tt, in.unify(v.Pos, tt, et)
	case *While:
		ct, err := in.infer(v.Cond, env, level)
		if err != nil {
			return nil, err
		}
		if err := in.unify(v.Pos, ct, TBool); err != nil {
			return nil, err
		}
		bt, err := in.infer(v.Body, env, level)
		if err != nil {
			return nil, err
		}
		return TUnit, in.unify(v.Pos, bt, TUnit)
	case *For:
		lo, err := in.infer(v.Lo, env, level)
		if err != nil {
			return nil, err
		}
		if err := in.unify(v.Pos, lo, TInt); err != nil {
			return nil, err
		}
		hi, err := in.infer(v.Hi, env, level)
		if err != nil {
			return nil, err
		}
		if err := in.unify(v.Pos, hi, TInt); err != nil {
			return nil, err
		}
		benv := env.bind(v.Var, MonoScheme(TInt))
		bt, err := in.infer(v.Body, benv, level)
		if err != nil {
			return nil, err
		}
		return TUnit, in.unify(v.Pos, bt, TUnit)
	case *Seq:
		lt, err := in.infer(v.L, env, level)
		if err != nil {
			return nil, err
		}
		if err := in.unify(v.L.exprPos(), lt, TUnit); err != nil {
			return nil, err
		}
		return in.infer(v.R, env, level)
	case *Fun:
		params := make([]Type, len(v.Params))
		benv := env
		for i, pname := range v.Params {
			var pt Type
			if pname == "()" {
				pt = TUnit
			} else {
				pt = in.newVar(level)
				benv = benv.bind(pname, MonoScheme(pt))
			}
			params[i] = pt
		}
		bt, err := in.infer(v.Body, benv, level)
		if err != nil {
			return nil, err
		}
		return TArrow(bt, params...), nil
	case *Let:
		bound, err := in.inferBinding(v.Rec, v.Name, v.Params, v.Bound, env, level)
		if err != nil {
			return nil, err
		}
		return in.infer(v.Body, env.bind(v.Name, bound), level)
	case *LetTuple:
		bt, err := in.infer(v.Bound, env, level+1)
		if err != nil {
			return nil, err
		}
		elems := make([]Type, len(v.Names))
		for i := range elems {
			elems[i] = in.newVar(level)
		}
		if err := in.unify(v.Pos, bt, TTuple(elems...)); err != nil {
			return nil, err
		}
		benv := env
		for i, n := range v.Names {
			if n == "_" {
				continue
			}
			benv = benv.bind(n, MonoScheme(elems[i]))
		}
		return in.infer(v.Body, benv, level)
	case *Try:
		bt, err := in.infer(v.Body, env, level)
		if err != nil {
			return nil, err
		}
		ht, err := in.infer(v.Handler, env, level)
		if err != nil {
			return nil, err
		}
		return bt, in.unify(v.Pos, bt, ht)
	case *Raise:
		mt, err := in.infer(v.Msg, env, level)
		if err != nil {
			return nil, err
		}
		if err := in.unify(v.Pos, mt, TString); err != nil {
			return nil, err
		}
		return in.newVar(level), nil
	}
	return nil, &TypeError{e.exprPos(), fmt.Sprintf("cannot infer %T", e)}
}

// inferBinding types a let binding (local or top-level) and returns the
// scheme to bind, applying the value restriction for generalization.
func (in *inferer) inferBinding(rec bool, name string, params []string, bound Expr, env *scope, level int) (*Scheme, error) {
	expr := bound
	if len(params) > 0 {
		expr = &Fun{Pos: bound.exprPos(), Params: params, Body: bound}
	}
	var bt Type
	var err error
	if rec {
		self := in.newVar(level + 1)
		recEnv := env.bind(name, MonoScheme(self))
		bt, err = in.infer(expr, recEnv, level+1)
		if err != nil {
			return nil, err
		}
		if err := in.unify(bound.exprPos(), self, bt); err != nil {
			return nil, err
		}
	} else {
		bt, err = in.infer(expr, env, level+1)
		if err != nil {
			return nil, err
		}
	}
	if isSyntacticValue(expr) {
		generalize(bt, level)
	}
	return &Scheme{Body: bt}, nil
}

func (in *inferer) inferBinop(v *Binop, env *scope, level int) (Type, error) {
	lt, err := in.infer(v.L, env, level)
	if err != nil {
		return nil, err
	}
	rt, err := in.infer(v.R, env, level)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "+", "-", "*", "/", "mod":
		if err := in.unify(v.Pos, lt, TInt); err != nil {
			return nil, err
		}
		return TInt, in.unify(v.Pos, rt, TInt)
	case "^":
		if err := in.unify(v.Pos, lt, TString); err != nil {
			return nil, err
		}
		return TString, in.unify(v.Pos, rt, TString)
	case "&&", "||":
		if err := in.unify(v.Pos, lt, TBool); err != nil {
			return nil, err
		}
		return TBool, in.unify(v.Pos, rt, TBool)
	case "=", "<>", "<", "<=", ">", ">=":
		return TBool, in.unify(v.Pos, lt, rt)
	case ":=":
		el := in.newVar(level)
		if err := in.unify(v.Pos, lt, TRef(el)); err != nil {
			return nil, err
		}
		return TUnit, in.unify(v.Pos, rt, el)
	}
	return nil, &TypeError{v.Pos, "unknown operator " + v.Op}
}

// hasFreeVars reports whether t contains an unbound, non-generic variable.
func hasFreeVars(t Type) bool {
	t = prune(t)
	switch v := t.(type) {
	case *TVar:
		return !v.Generic
	case *TFun:
		return hasFreeVars(v.Arg) || hasFreeVars(v.Ret)
	case *TCon:
		for _, a := range v.Args {
			if hasFreeVars(a) {
				return true
			}
		}
	}
	return false
}

// InferModule type checks a parsed module against the available signatures
// and returns its export signature (all top-level bindings except those
// named "_"). A top-level binding whose type is not fully determined is
// rejected: exported weak type variables would undermine the type-based
// security story.
func InferModule(m *Module, sigs *SigEnv) (*Signature, error) {
	in := &inferer{sigs: sigs, moduleBindings: map[string]*Scheme{}}
	export := NewSignature(m.Name)
	for _, top := range m.Tops {
		sch, err := in.inferBinding(top.Rec, top.Name, top.Params, top.Bound, nil, 0)
		if err != nil {
			return nil, err
		}
		if top.Name == "_" {
			// Evaluation-only form; must be unit.
			if err := in.unify(top.Pos, sch.Body, TUnit); err != nil {
				return nil, err
			}
			continue
		}
		in.moduleBindings[top.Name] = sch
	}
	// Re-check determinedness after the whole module has been processed:
	// later uses may have resolved earlier weak variables.
	for _, top := range m.Tops {
		if top.Name == "_" {
			continue
		}
		sch := in.moduleBindings[top.Name]
		if hasFreeVars(sch.Body) {
			return nil, &TypeError{top.Pos, fmt.Sprintf(
				"type of %s is not fully determined: %s", top.Name, TypeString(sch.Body))}
		}
	}
	for _, top := range m.Tops {
		if top.Name == "_" {
			continue
		}
		export.Add(top.Name, in.moduleBindings[top.Name])
	}
	return export, nil
}
