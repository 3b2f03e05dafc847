package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Type is a swl type: a constructor application, a function type, or a
// unification variable. Types are pure data; mutation happens only through
// TVar.Ref during inference.
type Type interface {
	typ()
}

// TCon is a type constructor application: int, bool, string, unit,
// (t) ref, (k, v) hashtbl, (t1 * t2 * ...) tuple.
type TCon struct {
	Name string
	Args []Type
}

// TFun is a single-argument function type; multi-argument functions are
// curried chains.
type TFun struct {
	Arg, Ret Type
}

// TVar is a unification variable. Ref non-nil means the variable is bound.
// Level implements let-generalization (Rémy-style levels).
type TVar struct {
	ID    int
	Level int
	Ref   Type
	// Generic marks instantiable quantified variables inside a Scheme.
	Generic bool
}

func (*TCon) typ() {}
func (*TFun) typ() {}
func (*TVar) typ() {}

// Primitive types, shared.
var (
	TInt    = &TCon{Name: "int"}
	TBool   = &TCon{Name: "bool"}
	TString = &TCon{Name: "string"}
	TUnit   = &TCon{Name: "unit"}
)

// TRef builds the reference type (t) ref.
func TRef(t Type) Type { return &TCon{Name: "ref", Args: []Type{t}} }

// TTuple builds a tuple type.
func TTuple(elems ...Type) Type { return &TCon{Name: "tuple", Args: elems} }

// TArrow builds a curried function type from args and result.
func TArrow(ret Type, args ...Type) Type {
	t := ret
	for i := len(args) - 1; i >= 0; i-- {
		t = &TFun{Arg: args[i], Ret: t}
	}
	return t
}

// prune follows bound variable links and returns the representative type.
func prune(t Type) Type {
	for {
		v, ok := t.(*TVar)
		if !ok || v.Ref == nil {
			return t
		}
		t = v.Ref
	}
}

// Scheme is a (possibly) polymorphic type: quantified variables are the
// TVars with Generic set reachable from Body.
type Scheme struct {
	Body Type
}

// MonoScheme wraps a monomorphic type.
func MonoScheme(t Type) *Scheme { return &Scheme{Body: t} }

// TypeString renders t canonically: full right-associated arrows, tuple
// elements joined by " * ", constructor arguments in parentheses, and
// unification/quantified variables named 'a, 'b, ... in order of first
// appearance. Two types render equal iff they are equal up to variable
// renaming, which is what the signature digest requires.
func TypeString(t Type) string {
	names := map[*TVar]string{}
	var sb strings.Builder
	writeType(&sb, t, names, false)
	return sb.String()
}

func writeType(sb *strings.Builder, t Type, names map[*TVar]string, arg bool) {
	t = prune(t)
	switch v := t.(type) {
	case *TVar:
		n, ok := names[v]
		if !ok {
			n = "'" + string(rune('a'+len(names)%26))
			if len(names) >= 26 {
				n = fmt.Sprintf("'t%d", len(names))
			}
			names[v] = n
		}
		sb.WriteString(n)
	case *TFun:
		if arg {
			sb.WriteByte('(')
		}
		writeType(sb, v.Arg, names, true)
		sb.WriteString(" -> ")
		writeType(sb, v.Ret, names, false)
		if arg {
			sb.WriteByte(')')
		}
	case *TCon:
		switch {
		case v.Name == "tuple":
			if arg {
				sb.WriteByte('(')
			}
			for i, e := range v.Args {
				if i > 0 {
					sb.WriteString(" * ")
				}
				writeType(sb, e, names, true)
			}
			if arg {
				sb.WriteByte(')')
			}
		case len(v.Args) == 0:
			sb.WriteString(v.Name)
		default:
			sb.WriteByte('(')
			for i, e := range v.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeType(sb, e, names, false)
			}
			sb.WriteString(") ")
			sb.WriteString(v.Name)
		}
	}
}

// ParseType parses the ML-ish type notation used to declare builtin module
// signatures, e.g.:
//
//	"int -> string"
//	"'a -> ('a) ref"
//	"('k, 'v) hashtbl -> 'k -> 'v"
//	"('a * 'b) -> 'a"
//	"(string -> int -> unit) -> unit"
//
// Postfix constructor application is supported: "'a ref", "int ref ref",
// "('k,'v) hashtbl". Variables with the same name denote the same
// quantified variable.
func ParseType(s string) (*Scheme, error) {
	p := &typeParser{src: s, vars: map[string]*TVar{}}
	t, err := p.parseArrow()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.off != len(p.src) {
		return nil, fmt.Errorf("type %q: trailing input at %d", s, p.off)
	}
	return &Scheme{Body: t}, nil
}

// MustParseType panics on error; for static builtin tables.
func MustParseType(s string) *Scheme {
	sch, err := ParseType(s)
	if err != nil {
		panic(err)
	}
	return sch
}

type typeParser struct {
	src    string
	off    int
	vars   map[string]*TVar
	nextID int
}

func (p *typeParser) skip() {
	for p.off < len(p.src) && (p.src[p.off] == ' ' || p.src[p.off] == '\t') {
		p.off++
	}
}

func (p *typeParser) peek() byte {
	if p.off >= len(p.src) {
		return 0
	}
	return p.src[p.off]
}

func (p *typeParser) ident() string {
	start := p.off
	for p.off < len(p.src) && (isLower(p.src[p.off]) || isDigit(p.src[p.off]) || p.src[p.off] == '_') {
		p.off++
	}
	return p.src[start:p.off]
}

func (p *typeParser) parseArrow() (Type, error) {
	l, err := p.parseTuple()
	if err != nil {
		return nil, err
	}
	p.skip()
	if strings.HasPrefix(p.src[p.off:], "->") {
		p.off += 2
		r, err := p.parseArrow()
		if err != nil {
			return nil, err
		}
		return &TFun{Arg: l, Ret: r}, nil
	}
	return l, nil
}

func (p *typeParser) parseTuple() (Type, error) {
	l, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.peek() != '*' {
		return l, nil
	}
	elems := []Type{l}
	for {
		p.skip()
		if p.peek() != '*' {
			break
		}
		p.off++
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return TTuple(elems...), nil
}

func (p *typeParser) parsePostfix() (Type, error) {
	args, err := p.parseAtomOrGroup()
	if err != nil {
		return nil, err
	}
	for {
		p.skip()
		if !isLower(p.peek()) {
			break
		}
		save := p.off
		name := p.ident()
		// A lone identifier here is a postfix constructor only if it is
		// a known constructor name; "->"-free juxtaposition otherwise is
		// an error anyway.
		switch name {
		case "ref", "hashtbl", "list":
			args = []Type{&TCon{Name: name, Args: args}}
		default:
			p.off = save
			return nil, fmt.Errorf("type %q: unknown postfix constructor %q", p.src, name)
		}
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("type %q: constructor arguments without constructor", p.src)
	}
	return args[0], nil
}

// parseAtomOrGroup returns one or more types: a parenthesized group
// (t1, t2) yields multiple, awaiting a postfix constructor.
func (p *typeParser) parseAtomOrGroup() ([]Type, error) {
	p.skip()
	c := p.peek()
	switch {
	case c == '\'':
		p.off++
		name := p.ident()
		if name == "" {
			return nil, fmt.Errorf("type %q: empty type variable", p.src)
		}
		v, ok := p.vars[name]
		if !ok {
			p.nextID++
			v = &TVar{ID: -p.nextID, Generic: true}
			p.vars[name] = v
		}
		return []Type{v}, nil
	case c == '(':
		p.off++
		var group []Type
		for {
			t, err := p.parseArrow()
			if err != nil {
				return nil, err
			}
			group = append(group, t)
			p.skip()
			if p.peek() == ',' {
				p.off++
				continue
			}
			break
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("type %q: expected ')' at %d", p.src, p.off)
		}
		p.off++
		return group, nil
	case isLower(c):
		name := p.ident()
		switch name {
		case "int":
			return []Type{TInt}, nil
		case "bool":
			return []Type{TBool}, nil
		case "string":
			return []Type{TString}, nil
		case "unit":
			return []Type{TUnit}, nil
		default:
			return nil, fmt.Errorf("type %q: unknown type %q", p.src, name)
		}
	}
	return nil, fmt.Errorf("type %q: unexpected character at %d", p.src, p.off)
}

// Signature is a module interface: an ordered set of named type schemes.
// The paper's module thinning consists of constructing a Signature that
// lists only the safe subset of a module's bindings.
type Signature struct {
	Module string
	names  []string
	items  map[string]*Scheme

	// digestOnce/digest cache SigDigest: import resolution digests the
	// provider signature on every load, and host-unit signatures are
	// shared process-wide, so each distinct signature pays for its
	// canonicalization once. Signatures are immutable once in use.
	digestOnce sync.Once
	digest     [16]byte
}

// NewSignature creates an empty signature for a module.
func NewSignature(module string) *Signature {
	return &Signature{Module: module, items: map[string]*Scheme{}}
}

// Add declares name : scheme, replacing an existing declaration.
func (s *Signature) Add(name string, sch *Scheme) {
	if _, dup := s.items[name]; !dup {
		s.names = append(s.names, name)
	}
	s.items[name] = sch
}

// Lookup returns the scheme for name.
func (s *Signature) Lookup(name string) (*Scheme, bool) {
	sch, ok := s.items[name]
	return sch, ok
}

// Names returns the declared names in declaration order.
func (s *Signature) Names() []string { return append([]string(nil), s.names...) }

// Thin returns a copy of the signature containing only the listed names;
// unknown names are ignored. This is Caml module thinning (paper §5.1).
func (s *Signature) Thin(keep ...string) *Signature {
	allowed := map[string]bool{}
	for _, k := range keep {
		allowed[k] = true
	}
	out := NewSignature(s.Module)
	for _, n := range s.names {
		if allowed[n] {
			out.Add(n, s.items[n])
		}
	}
	return out
}

// Canonical returns the canonical text rendering used for digesting:
// the module name followed by "name : type" lines sorted by name.
func (s *Signature) Canonical() string {
	var sb strings.Builder
	sb.WriteString("module ")
	sb.WriteString(s.Module)
	sb.WriteByte('\n')
	sorted := append([]string(nil), s.names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		sb.WriteString("val ")
		sb.WriteString(n)
		sb.WriteString(" : ")
		sb.WriteString(TypeString(s.items[n].Body))
		sb.WriteByte('\n')
	}
	return sb.String()
}
