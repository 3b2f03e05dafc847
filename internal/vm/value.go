package vm

import (
	"fmt"
	"strings"
)

// Value is a runtime value: int64, bool, string, Unit, *Ref, a tuple,
// *Closure, *Partial, *Native, or *Hashtbl. A tuple is a pointer to its
// elements, *[2]Value, *[3]Value or *[4]Value (the verifier admits no
// other arity), which the interface holds with no header of its own; read
// one through tupleOf. The type checker guarantees
// well-typed programs never see an unexpected dynamic type; the interpreter
// still checks and traps, so that a corrupted object cannot subvert the Go
// runtime (defence in depth, mirroring the paper's "static checking and
// prevention over dynamic checks when possible" — the dynamic checks exist
// but are never the design's load-bearing wall).
type Value interface{}

// Unit is the unit value ().
type Unit struct{}

// Ref is a mutable reference cell.
type Ref struct{ V Value }

// Closure is a compiled swl function with its captured environment.
type Closure struct {
	Mod   *LinkedModule
	Chunk *Chunk
	Caps  []Value
}

// Partial is a partially applied function awaiting more arguments.
type Partial struct {
	Fn   Value // *Closure or *Native
	Args []Value
}

// Well-known native tags. The optimizer specializes import-call sites by
// the textual import name, but the interpreter re-verifies the bound value
// carries the matching tag before taking an inlined fast path — a host that
// binds a different implementation under the same name simply gets the
// generic call. Zero means "no fast path".
const (
	TagNone int = iota
	TagStrSub
	TagStrGet
	TagHtblFind
	TagHtblMem
	TagHtblAdd
)

// Native is a host (Go) function exposed to switchlets through a thinned
// module signature.
type Native struct {
	Name  string
	Arity int
	Fn    func(ctx *Ctx, args []Value) (Value, error)
	// Tag identifies natives with interpreter-inlined fast paths (TagStr*,
	// TagHtbl*); the inlined code replicates Fn's semantics and AllocBytes
	// metering exactly.
	Tag int
}

// Hashtbl is the runtime hash table. Keys are restricted to int, bool and
// string at runtime (polymorphic keys that are functions or tables trap).
// Insertion order is preserved so that iteration — and therefore every
// simulation that iterates a table — is deterministic.
type Hashtbl struct {
	M    map[Value]Value
	Keys []Value
}

// NewHashtbl creates an empty table.
func NewHashtbl() *Hashtbl { return &Hashtbl{M: make(map[Value]Value)} }

// Set inserts or replaces a binding (the paper's learning table semantics:
// "replacing any previous entry").
func (h *Hashtbl) Set(k, v Value) {
	if _, ok := h.M[k]; !ok {
		h.Keys = append(h.Keys, k)
	}
	h.M[k] = v
}

// Delete removes a binding if present.
func (h *Hashtbl) Delete(k Value) {
	if _, ok := h.M[k]; !ok {
		return
	}
	delete(h.M, k)
	for i, kk := range h.Keys {
		if kk == k {
			h.Keys = append(h.Keys[:i], h.Keys[i+1:]...)
			break
		}
	}
}

// Clear removes all bindings.
func (h *Hashtbl) Clear() {
	h.M = make(map[Value]Value)
	h.Keys = nil
}

// Small-integer cache. Converting an int64 to the Value interface heap-
// allocates a box for anything the Go runtime does not cache (it only
// caches 0..255). Frame offsets, port numbers, counters and protocol
// constants fall overwhelmingly in a small range, so pre-boxing that range
// removes the dominant allocation of the dispatch loop. The boxes are
// immutable and shared by every Machine.
const (
	smallIntMin = -256
	smallIntMax = 4095
)

var smallInts [smallIntMax - smallIntMin + 1]Value

// Pre-boxed values for the other per-instruction results.
var (
	valTrue  Value = true
	valFalse Value = false
	valUnit  Value = Unit{}
)

func init() {
	for i := range smallInts {
		smallInts[i] = int64(i + smallIntMin)
	}
}

// boxInt converts an int64 to a Value without allocating for the common
// small range.
func boxInt(v int64) Value {
	if v >= smallIntMin && v <= smallIntMax {
		return smallInts[v-smallIntMin]
	}
	return v
}

// tupleOf returns the elements of a tuple value, or false if v is none.
// Tuples are immutable: the slice must not be written.
func tupleOf(v Value) ([]Value, bool) {
	switch t := v.(type) {
	case *[2]Value:
		if t != nil {
			return t[:], true
		}
	case *[3]Value:
		if t != nil {
			return t[:], true
		}
	case *[4]Value:
		if t != nil {
			return t[:], true
		}
	}
	return nil, false
}

// boxBool converts a bool to a Value without allocating.
func boxBool(b bool) Value {
	if b {
		return valTrue
	}
	return valFalse
}

// Trap is a runtime failure inside switchlet code: raise, a failed
// Hashtbl.find, division by zero, fuel exhaustion. The bridge catches
// traps at the invocation boundary — a faulty switchlet cannot take the
// node down (paper: "the Active Bridge can protect itself from some
// algorithmic failures in loadable modules").
type Trap struct {
	Msg string
}

func (t *Trap) Error() string { return "trap: " + t.Msg }

// arity returns the number of parameters a callable expects.
func arity(v Value) (int, bool) {
	switch f := v.(type) {
	case *Closure:
		return f.Chunk.NParams, true
	case *Native:
		return f.Arity, true
	case *Partial:
		n, ok := arity(f.Fn)
		return n - len(f.Args), ok
	}
	return 0, false
}

// FormatValue renders a value for logging and the swc disassembler.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case int64:
		return fmt.Sprintf("%d", x)
	case bool:
		return fmt.Sprintf("%t", x)
	case string:
		return fmt.Sprintf("%q", x)
	case Unit:
		return "()"
	case *Ref:
		return "ref " + FormatValue(x.V)
	case *[2]Value, *[3]Value, *[4]Value:
		elems, _ := tupleOf(x)
		parts := make([]string, len(elems))
		for i, e := range elems {
			parts[i] = FormatValue(e)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *Closure:
		return "<fun " + x.Chunk.Name + ">"
	case *Partial:
		return "<partial>"
	case *Native:
		return "<native " + x.Name + ">"
	case *Hashtbl:
		return fmt.Sprintf("<hashtbl %d>", len(x.M))
	case nil:
		return "<nil>"
	}
	return fmt.Sprintf("<%T>", v)
}

// valueEq implements polymorphic structural equality. Functions and tables
// are compared by identity-trap (comparing them is a dynamic error, as in
// Caml where it raises Invalid_argument).
func valueEq(a, b Value) (bool, error) {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x == y, nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y, nil
	case string:
		y, ok := b.(string)
		return ok && x == y, nil
	case Unit:
		_, ok := b.(Unit)
		return ok, nil
	case *[2]Value, *[3]Value, *[4]Value:
		xs, _ := tupleOf(x)
		ys, ok := tupleOf(b)
		if !ok || len(xs) != len(ys) {
			return false, nil
		}
		for i := range xs {
			eq, err := valueEq(xs[i], ys[i])
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	case *Ref:
		y, ok := b.(*Ref)
		if !ok {
			return false, nil
		}
		return valueEq(x.V, y.V)
	}
	return false, &Trap{Msg: "equality is not defined on functional values"}
}

// valueCmp implements polymorphic ordering for int, string, bool, and
// tuples thereof.
func valueCmp(a, b Value) (int, error) {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		if !ok {
			return 0, &Trap{Msg: "comparison type mismatch"}
		}
		switch {
		case x < y:
			return -1, nil
		case x > y:
			return 1, nil
		}
		return 0, nil
	case string:
		y, ok := b.(string)
		if !ok {
			return 0, &Trap{Msg: "comparison type mismatch"}
		}
		return strings.Compare(x, y), nil
	case bool:
		y, ok := b.(bool)
		if !ok {
			return 0, &Trap{Msg: "comparison type mismatch"}
		}
		switch {
		case !x && y:
			return -1, nil
		case x && !y:
			return 1, nil
		}
		return 0, nil
	case Unit:
		return 0, nil
	case *[2]Value, *[3]Value, *[4]Value:
		xs, _ := tupleOf(x)
		ys, ok := tupleOf(b)
		if !ok || len(xs) != len(ys) {
			return 0, &Trap{Msg: "comparison type mismatch"}
		}
		for i := range xs {
			c, err := valueCmp(xs[i], ys[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		return 0, nil
	}
	return 0, &Trap{Msg: "ordering is not defined on this value"}
}

// hashKey validates v as a hash table key.
func hashKey(v Value) (Value, error) {
	switch v.(type) {
	case int64, string, bool:
		return v, nil
	}
	return nil, &Trap{Msg: "hash table keys must be int, string or bool"}
}
