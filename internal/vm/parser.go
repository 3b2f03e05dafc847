package vm

import "fmt"

// parser is a recursive-descent parser over the buffered token stream.
//
// Grammar notes (deliberate simplifications of Caml, documented in README):
//   - if/then/else branches are single "statements"; use begin...end or
//     parentheses for sequences inside a branch;
//   - let ... in, fun, while/for bodies extend maximally to the right;
//   - try e with h catches any runtime trap in e (no exception patterns);
//   - unqualified names fall back to the implicitly opened Safestd module.
type parser struct {
	toks []token
	i    int
}

// ParseModule parses a full swl source file into an AST module.
func ParseModule(name, src string) (*Module, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &Module{Name: name}
	for !p.at(tokEOF, "") {
		if !p.at(tokKeyword, "let") {
			return nil, p.errf("expected top-level let, found %q", p.cur().text)
		}
		top, err := p.parseTopLet()
		if err != nil {
			return nil, err
		}
		m.Tops = append(m.Tops, top)
	}
	return m, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) eat(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(k, text) {
		return t, p.errf("expected %q, found %q", text, t.text)
	}
	p.i++
	return t, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// parseTopLet parses: let [rec] name param* = expr
func (p *parser) parseTopLet() (*TopLet, error) {
	pos := p.cur().pos
	if _, err := p.expect(tokKeyword, "let"); err != nil {
		return nil, err
	}
	rec := p.eat(tokKeyword, "rec")
	nameTok, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, p.errf("expected binding name")
	}
	var params []string
	for p.at(tokIdent, "") {
		params = append(params, p.cur().text)
		p.i++
	}
	// Allow `let f () = e` — a unit parameter.
	if p.at(tokOp, "(") && p.peek().kind == tokOp && p.peek().text == ")" {
		p.i += 2
		params = append(params, "()")
	}
	if _, err := p.expect(tokOp, "="); err != nil {
		return nil, err
	}
	if rec && len(params) == 0 {
		return nil, p.errf("let rec requires a function binding")
	}
	bound, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &TopLet{Pos: pos, Rec: rec, Name: nameTok.text, Params: params, Bound: bound}, nil
}

// parseExpr parses a (possibly sequenced) expression.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.at(tokOp, ";") {
		pos := p.cur().pos
		p.i++
		r, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Seq{Pos: pos, L: l, R: r}, nil
	}
	return l, nil
}

// parseStmt parses one statement-level expression (no naked `;`).
func (p *parser) parseStmt() (Expr, error) {
	t := p.cur()
	switch {
	case p.at(tokKeyword, "let"):
		return p.parseLetIn()
	case p.at(tokKeyword, "fun"):
		return p.parseFun()
	case p.at(tokKeyword, "if"):
		p.i++
		cond, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "then"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Expr
		if p.eat(tokKeyword, "else") {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Pos: t.pos, Cond: cond, Then: then, Else: els}, nil
	case p.at(tokKeyword, "while"):
		p.i++
		cond, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "do"); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "done"); err != nil {
			return nil, err
		}
		return &While{Pos: t.pos, Cond: cond, Body: body}, nil
	case p.at(tokKeyword, "for"):
		p.i++
		v, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, p.errf("expected loop variable")
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		lo, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "to"); err != nil {
			return nil, err
		}
		hi, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "do"); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "done"); err != nil {
			return nil, err
		}
		return &For{Pos: t.pos, Var: v.text, Lo: lo, Hi: hi, Body: body}, nil
	case p.at(tokKeyword, "try"):
		p.i++
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "with"); err != nil {
			return nil, err
		}
		handler, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Try{Pos: t.pos, Body: body, Handler: handler}, nil
	case p.at(tokKeyword, "raise"):
		p.i++
		msg, err := p.parseApp()
		if err != nil {
			return nil, err
		}
		return &Raise{Pos: t.pos, Msg: msg}, nil
	}
	return p.parseAssign()
}

func (p *parser) parseLetIn() (Expr, error) {
	pos := p.cur().pos
	p.i++ // let
	rec := p.eat(tokKeyword, "rec")

	// let (a, b, ...) = e in body
	if !rec && p.at(tokOp, "(") && p.peek().kind == tokIdent {
		// Look ahead for a comma to distinguish from `let (x) = ...`.
		save := p.i
		p.i++
		var names []string
		ok := true
		for {
			if !p.at(tokIdent, "") {
				ok = false
				break
			}
			names = append(names, p.cur().text)
			p.i++
			if p.eat(tokOp, ")") {
				break
			}
			if !p.eat(tokOp, ",") {
				ok = false
				break
			}
		}
		if ok && len(names) >= 2 && p.at(tokOp, "=") {
			p.i++
			bound, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "in"); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &LetTuple{Pos: pos, Names: names, Bound: bound, Body: body}, nil
		}
		p.i = save
	}

	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, p.errf("expected binding name after let")
	}
	var params []string
	for p.at(tokIdent, "") {
		params = append(params, p.cur().text)
		p.i++
	}
	if p.at(tokOp, "(") && p.peek().kind == tokOp && p.peek().text == ")" {
		p.i += 2
		params = append(params, "()")
	}
	if _, err := p.expect(tokOp, "="); err != nil {
		return nil, err
	}
	if rec && len(params) == 0 {
		return nil, p.errf("let rec requires a function binding")
	}
	bound, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "in"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Let{Pos: pos, Rec: rec, Name: name.text, Params: params, Bound: bound, Body: body}, nil
}

func (p *parser) parseFun() (Expr, error) {
	pos := p.cur().pos
	p.i++ // fun
	var params []string
	for {
		if p.at(tokIdent, "") {
			params = append(params, p.cur().text)
			p.i++
			continue
		}
		if p.at(tokOp, "(") && p.peek().kind == tokOp && p.peek().text == ")" {
			p.i += 2
			params = append(params, "()")
			continue
		}
		break
	}
	if len(params) == 0 {
		return nil, p.errf("fun requires at least one parameter")
	}
	if _, err := p.expect(tokOp, "->"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Fun{Pos: pos, Params: params, Body: body}, nil
}

// Operator precedence chain.

func (p *parser) parseAssign() (Expr, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.at(tokOp, ":=") {
		pos := p.cur().pos
		p.i++
		r, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Binop{Pos: pos, Op: ":=", L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "||") {
		pos := p.cur().pos
		p.i++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binop{Pos: pos, Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "&&") {
		pos := p.cur().pos
		p.i++
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binop{Pos: pos, Op: "&&", L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]bool{"=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp && cmpOps[p.cur().text] {
		op := p.cur().text
		pos := p.cur().pos
		p.i++
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &Binop{Pos: pos, Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseConcat() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.at(tokOp, "^") {
		pos := p.cur().pos
		p.i++
		r, err := p.parseConcat() // right associative
		if err != nil {
			return nil, err
		}
		return &Binop{Pos: pos, Op: "^", L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		op := p.cur().text
		pos := p.cur().pos
		p.i++
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binop{Pos: pos, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "*") || p.at(tokOp, "/") || p.at(tokKeyword, "mod") {
		op := p.cur().text
		pos := p.cur().pos
		p.i++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binop{Pos: pos, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch {
	case p.at(tokOp, "-"):
		p.i++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unop{Pos: t.pos, Op: "-", E: e}, nil
	case p.at(tokKeyword, "not"):
		p.i++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unop{Pos: t.pos, Op: "not", E: e}, nil
	}
	return p.parseApp()
}

// atomStart reports whether the current token can begin an atom (and hence
// an application argument).
func (p *parser) atomStart() bool {
	t := p.cur()
	switch t.kind {
	case tokInt, tokString, tokIdent, tokModule:
		return true
	case tokKeyword:
		return t.text == "true" || t.text == "false" || t.text == "begin"
	case tokOp:
		return t.text == "(" || t.text == "!"
	}
	return false
}

func (p *parser) parseApp() (Expr, error) {
	f, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	var args []Expr
	for p.atomStart() {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		return f, nil
	}
	return &Apply{Pos: f.exprPos(), Fn: f, Args: args}, nil
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.i++
		return &IntLit{Pos: t.pos, Val: t.intVal}, nil
	case tokString:
		p.i++
		return &StrLit{Pos: t.pos, Val: t.text}, nil
	case tokIdent:
		p.i++
		return &Var{Pos: t.pos, Name: t.text}, nil
	case tokModule:
		p.i++
		if _, err := p.expect(tokOp, "."); err != nil {
			return nil, p.errf("expected '.' after module name %s", t.text)
		}
		n, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, p.errf("expected identifier after %s.", t.text)
		}
		return &Var{Pos: t.pos, Module: t.text, Name: n.text}, nil
	case tokKeyword:
		switch t.text {
		case "true", "false":
			p.i++
			return &BoolLit{Pos: t.pos, Val: t.text == "true"}, nil
		case "begin":
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "end"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokOp:
		switch t.text {
		case "!":
			p.i++
			e, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &Unop{Pos: t.pos, Op: "!", E: e}, nil
		case "(":
			p.i++
			if p.eat(tokOp, ")") {
				return &UnitLit{Pos: t.pos}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.at(tokOp, ",") {
				elems := []Expr{e}
				for p.eat(tokOp, ",") {
					n, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					elems = append(elems, n)
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				if len(elems) > 4 {
					return nil, p.errf("tuples limited to 4 elements")
				}
				return &TupleExpr{Pos: t.pos, Elems: elems}, nil
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}
