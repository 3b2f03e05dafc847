package vm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// BuiltinDef declares one native binding of a host module: its name, its
// swl type (parsed by ParseType), and the Go implementation.
type BuiltinDef struct {
	Name  string
	Type  string
	Arity int
	Fn    func(ctx *Ctx, args []Value) (Value, error)
}

// unitSigCache memoizes BuildUnit signatures process-wide, keyed by the
// module name plus every declared name and type string. Host units are
// rebuilt once per node (hundreds of times in the fat-tree scenarios) with
// identical static type tables; parsing them once is enough. Sharing is
// sound because a parsed Scheme's variables are all Generic: inference
// only ever reads them through instantiate, which copies.
var unitSigCache sync.Map // string -> *Signature

// BuildUnit assembles a host module from builtin definitions, returning the
// signature (thin it further with Signature.Thin if needed) and the value
// table for Loader.AddUnit. The signature may be shared with other units
// built from the same definitions; treat it as immutable.
func BuildUnit(module string, defs []BuiltinDef) (*Signature, map[string]Value) {
	var kb strings.Builder
	kb.WriteString(module)
	values := make(map[string]Value, len(defs))
	for _, d := range defs {
		kb.WriteByte(0)
		kb.WriteString(d.Name)
		kb.WriteByte(1)
		kb.WriteString(d.Type)
		values[d.Name] = &Native{Name: module + "." + d.Name, Arity: d.Arity, Fn: d.Fn}
	}
	key := kb.String()
	if cached, ok := unitSigCache.Load(key); ok {
		return cached.(*Signature), values
	}
	sig := NewSignature(module)
	for _, d := range defs {
		sig.Add(d.Name, MustParseType(d.Type))
	}
	actual, _ := unitSigCache.LoadOrStore(key, sig)
	return actual.(*Signature), values
}

func argInt(args []Value, i int) (int64, error) {
	v, ok := args[i].(int64)
	if !ok {
		return 0, &Trap{Msg: fmt.Sprintf("argument %d: expected int", i)}
	}
	return v, nil
}

func argStr(args []Value, i int) (string, error) {
	v, ok := args[i].(string)
	if !ok {
		return "", &Trap{Msg: fmt.Sprintf("argument %d: expected string", i)}
	}
	return v, nil
}

func argTbl(args []Value, i int) (*Hashtbl, error) {
	v, ok := args[i].(*Hashtbl)
	if !ok {
		return nil, &Trap{Msg: fmt.Sprintf("argument %d: expected hashtbl", i)}
	}
	return v, nil
}

// SafestdUnit builds the Safestd module: the thinned standard library the
// paper derives from the MMM browser's Safestd. It is the implicit open, so
// `ref`, `string_of_int`, bit operations etc. are available unqualified.
func SafestdUnit() (*Signature, map[string]Value) {
	return BuildUnit("Safestd", []BuiltinDef{
		{"ref", "'a -> ('a) ref", 1, func(ctx *Ctx, a []Value) (Value, error) {
			return ctx.M.newRef(a[0]), nil
		}},
		{"fst", "('a * 'b) -> 'a", 1, func(_ *Ctx, a []Value) (Value, error) {
			t, ok := tupleOf(a[0])
			if !ok {
				return nil, &Trap{Msg: "fst: not a pair"}
			}
			return t[0], nil
		}},
		{"snd", "('a * 'b) -> 'b", 1, func(_ *Ctx, a []Value) (Value, error) {
			t, ok := tupleOf(a[0])
			if !ok {
				return nil, &Trap{Msg: "snd: not a pair"}
			}
			return t[1], nil
		}},
		{"min", "int -> int -> int", 2, func(_ *Ctx, a []Value) (Value, error) {
			x, err := argInt(a, 0)
			if err != nil {
				return nil, err
			}
			y, err := argInt(a, 1)
			if err != nil {
				return nil, err
			}
			if x < y {
				return x, nil
			}
			return y, nil
		}},
		{"max", "int -> int -> int", 2, func(_ *Ctx, a []Value) (Value, error) {
			x, err := argInt(a, 0)
			if err != nil {
				return nil, err
			}
			y, err := argInt(a, 1)
			if err != nil {
				return nil, err
			}
			if x > y {
				return x, nil
			}
			return y, nil
		}},
		{"abs", "int -> int", 1, func(_ *Ctx, a []Value) (Value, error) {
			x, err := argInt(a, 0)
			if err != nil {
				return nil, err
			}
			if x < 0 {
				return -x, nil
			}
			return x, nil
		}},
		{"ignore", "'a -> unit", 1, func(_ *Ctx, a []Value) (Value, error) {
			return Unit{}, nil
		}},
		{"string_of_int", "int -> string", 1, func(ctx *Ctx, a []Value) (Value, error) {
			x, err := argInt(a, 0)
			if err != nil {
				return nil, err
			}
			s := ctx.M.strOfInt(x)
			ctx.M.AllocBytes += uint64(len(s.(string)))
			return s, nil
		}},
		{"int_of_string", "string -> int", 1, func(_ *Ctx, a []Value) (Value, error) {
			s, err := argStr(a, 0)
			if err != nil {
				return nil, err
			}
			v, err2 := strconv.ParseInt(s, 10, 64)
			if err2 != nil {
				return nil, &Trap{Msg: "int_of_string: " + s}
			}
			return v, nil
		}},
		{"string_of_bool", "bool -> string", 1, func(_ *Ctx, a []Value) (Value, error) {
			b, ok := a[0].(bool)
			if !ok {
				return nil, &Trap{Msg: "string_of_bool: not a bool"}
			}
			if b {
				return "true", nil
			}
			return "false", nil
		}},
		{"failwith", "string -> 'a", 1, func(_ *Ctx, a []Value) (Value, error) {
			s, _ := a[0].(string)
			return nil, &Trap{Msg: s}
		}},
		{"land", "int -> int -> int", 2, intBinop(func(a, b int64) (int64, error) { return a & b, nil })},
		{"lor", "int -> int -> int", 2, intBinop(func(a, b int64) (int64, error) { return a | b, nil })},
		{"lxor", "int -> int -> int", 2, intBinop(func(a, b int64) (int64, error) { return a ^ b, nil })},
		{"lsl", "int -> int -> int", 2, intBinop(func(a, b int64) (int64, error) {
			if b < 0 || b > 62 {
				return 0, &Trap{Msg: "lsl: shift out of range"}
			}
			return a << uint(b), nil
		})},
		{"lsr", "int -> int -> int", 2, intBinop(func(a, b int64) (int64, error) {
			if b < 0 || b > 62 {
				return 0, &Trap{Msg: "lsr: shift out of range"}
			}
			return int64(uint64(a) >> uint(b)), nil
		})},
	})
}

func intBinop(f func(a, b int64) (int64, error)) func(*Ctx, []Value) (Value, error) {
	return func(_ *Ctx, a []Value) (Value, error) {
		x, err := argInt(a, 0)
		if err != nil {
			return nil, err
		}
		y, err := argInt(a, 1)
		if err != nil {
			return nil, err
		}
		v, err := f(x, y)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// tagNatives marks natives that have interpreter-inlined fast paths; the
// inlined superinstructions replicate their semantics, trap messages and
// AllocBytes metering exactly (pinned by TestInlinedNativeParity).
func tagNatives(values map[string]Value, tags map[string]int) {
	for name, tag := range tags { //ab:mapiter-ok independent per-name mutations; order cannot escape
		if n, ok := values[name].(*Native); ok {
			n.Tag = tag
		}
	}
}

// StringUnit builds the String module: byte-string operations sufficient to
// unmarshal Ethernet frames "from the string", as the paper's switchlets
// must.
func StringUnit() (*Signature, map[string]Value) {
	sig, values := buildStringUnit()
	tagNatives(values, map[string]int{"sub": TagStrSub, "get": TagStrGet})
	return sig, values
}

func buildStringUnit() (*Signature, map[string]Value) {
	return BuildUnit("String", []BuiltinDef{
		{"length", "string -> int", 1, func(_ *Ctx, a []Value) (Value, error) {
			s, err := argStr(a, 0)
			if err != nil {
				return nil, err
			}
			return int64(len(s)), nil
		}},
		{"get", "string -> int -> int", 2, func(_ *Ctx, a []Value) (Value, error) {
			s, err := argStr(a, 0)
			if err != nil {
				return nil, err
			}
			i, err := argInt(a, 1)
			if err != nil {
				return nil, err
			}
			if i < 0 || i >= int64(len(s)) {
				return nil, &Trap{Msg: "String.get: index out of bounds"}
			}
			return int64(s[i]), nil
		}},
		{"sub", "string -> int -> int -> string", 3, func(ctx *Ctx, a []Value) (Value, error) {
			s, err := argStr(a, 0)
			if err != nil {
				return nil, err
			}
			pos, err := argInt(a, 1)
			if err != nil {
				return nil, err
			}
			n, err := argInt(a, 2)
			if err != nil {
				return nil, err
			}
			if pos < 0 || n < 0 || pos > int64(len(s)) || n > int64(len(s))-pos {
				return nil, &Trap{Msg: "String.sub: out of bounds"}
			}
			ctx.M.AllocBytes += uint64(n)
			if n <= 2 {
				return shortStr(s[pos : pos+n]), nil
			}
			return ctx.M.strBox.Box(s[pos : pos+n]), nil
		}},
		{"make", "int -> int -> string", 2, func(ctx *Ctx, a []Value) (Value, error) {
			n, err := argInt(a, 0)
			if err != nil {
				return nil, err
			}
			c, err := argInt(a, 1)
			if err != nil {
				return nil, err
			}
			if n < 0 || n > 1<<20 {
				return nil, &Trap{Msg: "String.make: bad length"}
			}
			if c < 0 || c > 255 {
				return nil, &Trap{Msg: "String.make: byte out of range"}
			}
			ctx.M.AllocBytes += uint64(n)
			return ctx.M.makeStr(int(n), byte(c)), nil
		}},
		{"compare", "string -> string -> int", 2, func(_ *Ctx, a []Value) (Value, error) {
			x, err := argStr(a, 0)
			if err != nil {
				return nil, err
			}
			y, err := argStr(a, 1)
			if err != nil {
				return nil, err
			}
			switch {
			case x < y:
				return int64(-1), nil
			case x > y:
				return int64(1), nil
			}
			return int64(0), nil
		}},
	})
}

// HashtblUnit builds the Hashtbl module. Add replaces any existing binding
// (the paper's learning-table semantics); iteration is in insertion order
// for determinism.
func HashtblUnit() (*Signature, map[string]Value) {
	sig, values := buildHashtblUnit()
	tagNatives(values, map[string]int{
		"find": TagHtblFind, "mem": TagHtblMem, "add": TagHtblAdd,
	})
	return sig, values
}

func buildHashtblUnit() (*Signature, map[string]Value) {
	return BuildUnit("Hashtbl", []BuiltinDef{
		{"create", "int -> ('k, 'v) hashtbl", 1, func(ctx *Ctx, a []Value) (Value, error) {
			ctx.M.AllocBytes += 64
			return NewHashtbl(), nil
		}},
		{"add", "('k, 'v) hashtbl -> 'k -> 'v -> unit", 3, func(ctx *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 0)
			if err != nil {
				return nil, err
			}
			k, err := hashKey(a[1])
			if err != nil {
				return nil, err
			}
			ctx.M.AllocBytes += 32
			t.Set(k, a[2])
			return Unit{}, nil
		}},
		{"find", "('k, 'v) hashtbl -> 'k -> 'v", 2, func(_ *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 0)
			if err != nil {
				return nil, err
			}
			k, err := hashKey(a[1])
			if err != nil {
				return nil, err
			}
			v, ok := t.M[k]
			if !ok {
				return nil, &Trap{Msg: "Not_found"}
			}
			return v, nil
		}},
		{"mem", "('k, 'v) hashtbl -> 'k -> bool", 2, func(_ *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 0)
			if err != nil {
				return nil, err
			}
			k, err := hashKey(a[1])
			if err != nil {
				return nil, err
			}
			_, ok := t.M[k]
			return ok, nil
		}},
		{"remove", "('k, 'v) hashtbl -> 'k -> unit", 2, func(_ *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 0)
			if err != nil {
				return nil, err
			}
			k, err := hashKey(a[1])
			if err != nil {
				return nil, err
			}
			t.Delete(k)
			return Unit{}, nil
		}},
		{"clear", "('k, 'v) hashtbl -> unit", 1, func(_ *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 0)
			if err != nil {
				return nil, err
			}
			t.Clear()
			return Unit{}, nil
		}},
		{"length", "('k, 'v) hashtbl -> int", 1, func(_ *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 0)
			if err != nil {
				return nil, err
			}
			return int64(len(t.M)), nil
		}},
		{"iter", "('k -> 'v -> unit) -> ('k, 'v) hashtbl -> unit", 2, func(ctx *Ctx, a []Value) (Value, error) {
			t, err := argTbl(a, 1)
			if err != nil {
				return nil, err
			}
			// Iterate a snapshot of the keys so the callback may mutate.
			keys := append([]Value(nil), t.Keys...)
			for _, k := range keys {
				v, ok := t.M[k]
				if !ok {
					continue
				}
				if _, err := ctx.Call(a[0], k, v); err != nil {
					return nil, err
				}
			}
			return Unit{}, nil
		}},
	})
}

// stdUnits holds the three standard units, built once: their natives are
// stateless (no captured node handles), so signatures and value tables are
// shared by every loader in the process.
var stdUnits = sync.OnceValue(func() []struct {
	sig  *Signature
	vals map[string]Value
} {
	out := make([]struct {
		sig  *Signature
		vals map[string]Value
	}, 0, 3)
	for _, build := range []func() (*Signature, map[string]Value){SafestdUnit, StringUnit, HashtblUnit} {
		sig, vals := build()
		out = append(out, struct {
			sig  *Signature
			vals map[string]Value
		}{sig, vals})
	}
	return out
})

// StdLoader creates a loader with the three standard units (Safestd,
// String, Hashtbl) installed — the baseline environment every switchlet
// compilation in this repository assumes.
func StdLoader(m *Machine) *Loader {
	l := NewLoader(m)
	for _, u := range stdUnits() {
		if err := l.AddUnit(u.sig, u.vals); err != nil {
			panic(err) // static tables; cannot fail
		}
	}
	return l
}
