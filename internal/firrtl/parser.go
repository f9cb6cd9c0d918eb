package firrtl

import (
	"fmt"
	"slices"
	"strconv"
)

// Parse parses FIRRTL source text into a Circuit. The parser pulls each
// token from the lexer as it needs it. A lexical error anywhere in the source
// takes precedence over a parse error: when parsing fails first, Parse lexes
// the rest of the source for one.
func Parse(src string) (*Circuit, error) {
	p := &parser{lex: newLexer(src)}
	p.cur, p.ahead = p.pull(), p.pull()
	c, err := p.parseCircuit()
	if err != nil {
		for p.pull().kind != tokEOF {
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return c, err
}

// parser holds the current token and the one after it, parseExpr's one
// two-token lookahead.
type parser struct {
	lex        lexer
	cur, ahead token
	// lexErr is the lexer's first error; every token pulled after it is
	// tokEOF.
	lexErr error
	// depth is how many primitive applications enclose the expression
	// being parsed.
	depth int
}

// maxExprDepth bounds how deeply primitive applications nest in one
// expression. Every phase that walks an expression tree recurses once per
// level (parseExpr, exprNodes, elaborator.eval), so this bounds their stacks.
// Generated sources nest at most 3 deep; long hand-written mux chains need
// more.
const maxExprDepth = 1000

func (p *parser) pull() token {
	if p.lexErr == nil {
		t, err := p.lex.next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return token{kind: tokEOF}
}

func (p *parser) next() token {
	t := p.cur
	if t.kind != tokEOF {
		p.cur, p.ahead = p.ahead, p.pull()
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("firrtl:%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, p.errf(t, "expected %s, found %s", what, t)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return p.errf(t, "expected %q, found %s", kw, t)
	}
	return nil
}

func (p *parser) skipNewlines() {
	for p.cur.kind == tokNewline {
		p.next()
	}
}

func (p *parser) endLine() error {
	t := p.next()
	if t.kind != tokNewline && t.kind != tokEOF {
		return p.errf(t, "expected end of line, found %s", t)
	}
	return nil
}

func (p *parser) parseCircuit() (*Circuit, error) {
	p.skipNewlines()
	if err := p.expectKeyword("circuit"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "circuit name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	if err := p.endLine(); err != nil {
		return nil, err
	}
	c := &Circuit{Name: name.text, byName: map[string]*Module{}}
	for {
		p.skipNewlines()
		t := p.cur
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent || t.text != "module" {
			return nil, p.errf(t, "expected 'module', found %s", t)
		}
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		if c.FindModule(m.Name) != nil {
			return nil, fmt.Errorf("firrtl: duplicate module %q", m.Name)
		}
		c.Modules = append(c.Modules, m)
		c.byName[m.Name] = m
	}
	if c.MainModule() == nil {
		return nil, fmt.Errorf("firrtl: circuit %q has no module of the same name", c.Name)
	}
	return c, nil
}

func (p *parser) parseModule() (*Module, error) {
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "module name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	if err := p.endLine(); err != nil {
		return nil, err
	}
	m := &Module{Name: name.text}
	for {
		p.skipNewlines()
		t := p.cur
		if t.kind == tokEOF {
			break
		}
		if t.kind == tokIdent && t.text == "module" {
			break
		}
		stmt, port, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if port != nil {
			m.Ports = append(m.Ports, *port)
		} else if stmt != nil {
			// Doubling allocates about twice the final array, where
			// append's growth of a long slice by 1.25× allocates five times.
			if len(m.Stmts) == cap(m.Stmts) {
				m.Stmts = slices.Grow(m.Stmts, len(m.Stmts))
			}
			m.Stmts = append(m.Stmts, stmt)
		}
	}
	return m, nil
}

// parseStmt parses one statement line; port declarations are returned
// separately so the module can keep them apart from the body.
func (p *parser) parseStmt() (Stmt, *PortDecl, error) {
	t := p.cur
	if t.kind != tokIdent {
		return nil, nil, p.errf(t, "expected statement, found %s", t)
	}
	switch t.text {
	case "input", "output":
		port, err := p.parsePort()
		return nil, port, err
	case "wire":
		return p.parseWire()
	case "reg", "regreset":
		return p.parseReg()
	case "node":
		return p.parseNode()
	case "inst":
		return p.parseInst()
	case "skip":
		line := p.next().line
		return &Skip{Line: line}, nil, p.endLine()
	default:
		// A connect: ref <= expr
		lhs, err := p.parseRef()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokConnect, "'<='"); err != nil {
			return nil, nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		return &Connect{LHS: *lhs, RHS: rhs, Line: t.line}, nil, p.endLine()
	}
}

func (p *parser) parsePort() (*PortDecl, error) {
	dirTok := p.next()
	dir := DirInput
	if dirTok.text == "output" {
		dir = DirOutput
	}
	name, err := p.expect(tokIdent, "port name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	pt, width, err := p.parseType()
	if err != nil {
		return nil, err
	}
	port := &PortDecl{Dir: dir, Name: name.text, Type: pt, Width: width, Line: dirTok.line}
	return port, p.endLine()
}

func (p *parser) parseType() (PortType, int, error) {
	t := p.next()
	if t.kind != tokIdent {
		return 0, 0, p.errf(t, "expected type, found %s", t)
	}
	switch t.text {
	case "Clock":
		return TypeClock, 1, nil
	case "Reset", "AsyncReset":
		return TypeReset, 1, nil
	case "UInt":
		w, err := p.parseWidth(t)
		return TypeUInt, w, err
	case "SInt":
		return 0, 0, p.errf(t, "SInt is outside the accepted subset; express signed arithmetic over UInt")
	default:
		return 0, 0, p.errf(t, "unknown type %q", t.text)
	}
}

func (p *parser) parseWidth(at token) (int, error) {
	if _, err := p.expect(tokLAngle, "'<'"); err != nil {
		return 0, err
	}
	wTok, err := p.expect(tokInt, "width")
	if err != nil {
		return 0, err
	}
	w, err := strconv.Atoi(wTok.text)
	if err != nil || w < 1 || w > 64 {
		return 0, p.errf(wTok, "width must be 1..64, got %q", wTok.text)
	}
	if _, err := p.expect(tokRAngle, "'>'"); err != nil {
		return 0, err
	}
	return w, nil
}

func (p *parser) parseWire() (Stmt, *PortDecl, error) {
	line := p.next().line // 'wire'
	name, err := p.expect(tokIdent, "wire name")
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, nil, err
	}
	pt, width, err := p.parseType()
	if err != nil {
		return nil, nil, err
	}
	if pt != TypeUInt {
		return nil, nil, p.errf(name, "wire %q must be UInt", name.text)
	}
	return &WireDecl{Name: name.text, Width: width, Line: line}, nil, p.endLine()
}

func (p *parser) parseReg() (Stmt, *PortDecl, error) {
	kw := p.next() // 'reg' or 'regreset'
	name, err := p.expect(tokIdent, "register name")
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, nil, err
	}
	pt, width, err := p.parseType()
	if err != nil {
		return nil, nil, err
	}
	if pt != TypeUInt {
		return nil, nil, p.errf(name, "register %q must be UInt", name.text)
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokIdent, "clock reference"); err != nil {
		return nil, nil, err
	}
	decl := &RegDecl{Name: name.text, Width: width, Line: kw.line}
	if kw.text == "regreset" {
		// regreset r : UInt<w>, clock, resetSig, init
		for i := 0; i < 2; i++ {
			if _, err := p.expect(tokComma, "','"); err != nil {
				return nil, nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				decl.ResetSig = e
			} else {
				decl.Init = e
			}
		}
		decl.HasReset = true
	} else if p.cur.kind == tokIdent && p.cur.text == "with" {
		// reg r : UInt<w>, clock with : (reset => (sig, init))
		p.next()
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, nil, err
		}
		if err := p.expectKeyword("reset"); err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokFatArrow, "'=>'"); err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, nil, err
		}
		sig, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokComma, "','"); err != nil {
			return nil, nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < 2; i++ {
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, nil, err
			}
		}
		decl.HasReset = true
		decl.ResetSig = sig
		decl.Init = init
	}
	return decl, nil, p.endLine()
}

func (p *parser) parseNode() (Stmt, *PortDecl, error) {
	line := p.next().line // 'node'
	name, err := p.expect(tokIdent, "node name")
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokEq, "'='"); err != nil {
		return nil, nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	return &NodeDecl{Name: name.text, Expr: e, Line: line}, nil, p.endLine()
}

func (p *parser) parseInst() (Stmt, *PortDecl, error) {
	line := p.next().line // 'inst'
	name, err := p.expect(tokIdent, "instance name")
	if err != nil {
		return nil, nil, err
	}
	if err := p.expectKeyword("of"); err != nil {
		return nil, nil, err
	}
	mod, err := p.expect(tokIdent, "module name")
	if err != nil {
		return nil, nil, err
	}
	return &InstDecl{Name: name.text, Module: mod.text, Line: line}, nil, p.endLine()
}

func (p *parser) parseRef() (*RefExpr, error) {
	name, err := p.expect(tokIdent, "reference")
	if err != nil {
		return nil, err
	}
	full := name.text
	for p.cur.kind == tokDot {
		p.next()
		field, err := p.expect(tokIdent, "field name")
		if err != nil {
			return nil, err
		}
		full += "." + field.text
	}
	return &RefExpr{Name: full, Line: name.line}, nil
}

func (p *parser) parseExpr() (Expr, error) {
	t := p.cur
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected expression, found %s", t)
	}
	if t.text == "UInt" {
		return p.parseLiteral()
	}
	if sig, ok := primSigs[t.text]; ok && p.ahead.kind == tokLParen {
		return p.parsePrim(t.text, sig)
	}
	return p.parseRef()
}

func (p *parser) parseLiteral() (Expr, error) {
	t := p.next() // 'UInt'
	w, err := p.parseWidth(t)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	vt := p.next()
	var v uint64
	switch vt.kind {
	case tokInt:
		v, err = strconv.ParseUint(vt.text, 10, 64)
	case tokString:
		if len(vt.text) < 2 || vt.text[0] != 'h' {
			return nil, p.errf(vt, "string literal must be hex (\"h...\"), got %q", vt.text)
		}
		v, err = strconv.ParseUint(vt.text[1:], 16, 64)
	default:
		return nil, p.errf(vt, "expected literal value, found %s", vt)
	}
	if err != nil {
		return nil, p.errf(vt, "bad literal %q: %v", vt.text, err)
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return &LitExpr{Width: w, Value: v, Line: t.line}, nil
}

func (p *parser) parsePrim(op string, sig primSig) (Expr, error) {
	t := p.next() // op name
	if p.depth == maxExprDepth {
		return nil, p.errf(t, "expression nests more than %d primitive operations deep", maxExprDepth)
	}
	p.depth++
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	e := &PrimExpr{Op: op, Line: t.line, Args: make([]Expr, 0, sig.args)}
	if sig.params > 0 {
		e.Params = make([]uint64, 0, sig.params)
	}
	total := sig.args + sig.params
	for i := 0; i < total; i++ {
		if i > 0 {
			if _, err := p.expect(tokComma, "','"); err != nil {
				return nil, err
			}
		}
		if i < sig.args {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, a)
		} else {
			v, err := p.expect(tokInt, "integer parameter")
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseUint(v.text, 10, 64)
			if err != nil {
				return nil, p.errf(v, "bad parameter %q", v.text)
			}
			e.Params = append(e.Params, n)
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	p.depth--
	return e, nil
}
