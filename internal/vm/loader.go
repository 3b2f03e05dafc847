package vm

import (
	"fmt"
)

// Loader reproduces the paper's Dynlink-based switchlet linking model
// (§5.1.2):
//
//   - NewLoader       ~ Dynlink.init: an empty name space;
//   - AddUnit         ~ Dynlink.add_available_units: enter the (thinned)
//     signatures and values of statically linked modules;
//   - Load            ~ Dynlink.load: link an object file into the name
//     space and evaluate its top-level forms.
//
// There is deliberately no way for previously linked code to reach into a
// newly loaded module; new modules announce themselves by calling
// registration functions (the paper's Func module / our env.Bridge hooks).
type Loader struct {
	machine *Machine
	sigs    *SigEnv
	values  map[string]map[string]Value
	modules map[string]*LinkedModule
	order   []string

	// Loads counts successful module loads; LoadErrors the rejected ones.
	Loads      uint64
	LoadErrors uint64

	// OptLevel controls quickening of loaded objects: 0 links the wire
	// bytecode as-is (the reference every differential test compares
	// against), anything above (1 is the default) runs OptimizeObject, whose
	// rewrites are all checkable from the wire code and whose specialized
	// calls re-check the bound native at run time. At either level the observable semantics,
	// Steps and AllocBytes are identical.
	OptLevel int
}

// LinkError is a load-time failure: unknown module, missing name, or a
// signature digest mismatch.
type LinkError struct {
	Module string
	Msg    string
}

func (e *LinkError) Error() string { return fmt.Sprintf("link error in %s: %s", e.Module, e.Msg) }

// NewLoader creates an empty namespace bound to an interpreter.
func NewLoader(m *Machine) *Loader {
	return &Loader{
		machine:  m,
		sigs:     NewSigEnv(),
		values:   map[string]map[string]Value{},
		modules:  map[string]*LinkedModule{},
		OptLevel: 1,
	}
}

// Machine returns the interpreter this loader links against.
func (l *Loader) Machine() *Machine { return l.machine }

// SigEnv exposes the available signatures, e.g. for compiling switchlets
// "against" this node.
func (l *Loader) SigEnv() *SigEnv { return l.sigs }

// AddUnit makes a host-provided module available: its (thinned) signature
// and the value of each declared name. Every declared name must be given a
// value.
func (l *Loader) AddUnit(sig *Signature, values map[string]Value) error {
	for _, n := range sig.Names() {
		if _, ok := values[n]; !ok {
			return &LinkError{Module: sig.Module, Msg: "no value provided for " + n}
		}
	}
	l.sigs.Add(sig)
	l.values[sig.Module] = values
	return nil
}

// Module returns a loaded module by name.
func (l *Loader) Module(name string) (*LinkedModule, bool) {
	m, ok := l.modules[name]
	return m, ok
}

// Modules returns loaded module names in load order.
func (l *Loader) Modules() []string { return append([]string(nil), l.order...) }

// lookupValue resolves module.name to a runtime value, from either a host
// unit or a previously loaded module.
func (l *Loader) lookupValue(module, name string) (Value, error) {
	if vals, ok := l.values[module]; ok {
		if v, ok := vals[name]; ok {
			return v, nil
		}
		return nil, &LinkError{Module: module, Msg: "unit has no value " + name}
	}
	if lm, ok := l.modules[module]; ok {
		if v, ok := lm.Global(name); ok {
			return v, nil
		}
		return nil, &LinkError{Module: module, Msg: "module has no export " + name}
	}
	return nil, &LinkError{Module: module, Msg: "module not loaded"}
}

// Load links and evaluates an encoded object file. On success the module's
// exports become available to future loads. The load is atomic: a digest
// mismatch, verification failure, or a trap in the module's top-level forms
// leaves the namespace unchanged.
func (l *Loader) Load(objBytes []byte) (*LinkedModule, error) {
	obj, err := DecodeObject(objBytes)
	if err != nil {
		l.LoadErrors++
		return nil, err
	}
	return l.LoadObject(obj)
}

// LoadObject links and evaluates a decoded object.
func (l *Loader) LoadObject(obj *Object) (*LinkedModule, error) {
	lm, err := l.loadObject(obj)
	if err != nil {
		l.LoadErrors++
		return nil, err
	}
	l.Loads++
	return lm, nil
}

func (l *Loader) loadObject(obj *Object) (*LinkedModule, error) {
	// Full static verification (static.go): control-flow integrity, stack
	// discipline, type soundness and capture bounds — a typed
	// *VerifyError rejection before any VM state exists for the module.
	if _, err := VerifyObject(obj); err != nil {
		return nil, err
	}
	if l.OptLevel > 0 {
		// Quicken after verification. For objects the compiler already
		// optimized this is a no-op (OptimizeObject runs once per object).
		OptimizeObject(obj, false)
	}
	if _, dup := l.modules[obj.ModName]; dup {
		return nil, &LinkError{Module: obj.ModName, Msg: "module already loaded"}
	}
	if _, dup := l.values[obj.ModName]; dup {
		return nil, &LinkError{Module: obj.ModName, Msg: "name collides with a host unit"}
	}

	// Resolve imports, checking interface digests (the MD5 digests the
	// paper's Caml embeds in byte code).
	var imports []Value
	for _, ref := range obj.Imports {
		sig, ok := l.sigs.Lookup(ref.Module)
		if !ok {
			return nil, &LinkError{Module: obj.ModName, Msg: "imports unknown module " + ref.Module}
		}
		if got := SigDigest(sig); got != ref.Digest {
			return nil, &LinkError{
				Module: obj.ModName,
				Msg: fmt.Sprintf("interface digest mismatch for %s: compiled against %x, node provides %x",
					ref.Module, ref.Digest[:4], got[:4]),
			}
		}
		for _, name := range ref.Names {
			v, err := l.lookupValue(ref.Module, name)
			if err != nil {
				return nil, err
			}
			imports = append(imports, v)
		}
	}

	export, err := obj.ExportSignature()
	if err != nil {
		return nil, &LinkError{Module: obj.ModName, Msg: "bad export signature: " + err.Error()}
	}

	obj.strOnce.Do(func() {
		obj.strVals = make([]Value, len(obj.StrPool))
		for i, s := range obj.StrPool {
			obj.strVals[i] = s
		}
	})
	lm := &LinkedModule{
		Obj:     obj,
		Export:  export,
		Globals: make([]Value, obj.NGlobals),
		Imports: imports,
	}
	if obj.NICSites > 0 {
		lm.ics = make([]icache, obj.NICSites)
	}

	// Evaluate the top-level forms (the registration calls).
	initClo := &Closure{Mod: lm, Chunk: obj.Chunks[obj.Init]}
	if _, err := l.machine.Invoke(initClo); err != nil {
		return nil, fmt.Errorf("module %s initialization failed: %w", obj.ModName, err)
	}

	l.modules[obj.ModName] = lm
	l.sigs.Add(export)
	l.order = append(l.order, obj.ModName)
	return lm, nil
}

// Unload removes a loaded module's signature and exports from the
// namespace. Values already registered with the host environment remain
// reachable (as in the paper, unloading is not revocation; the bridge's
// control switchlet disables protocols by calling their exported controls,
// not by unloading them).
func (l *Loader) Unload(name string) bool {
	if _, ok := l.modules[name]; !ok {
		return false
	}
	delete(l.modules, name)
	for i, n := range l.order {
		if n == name {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	// Remove the signature so future compiles cannot link against it.
	delete(l.sigs.mods, name)
	return true
}
