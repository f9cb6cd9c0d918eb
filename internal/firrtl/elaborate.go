package firrtl

import (
	"fmt"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// Elaborate flattens the circuit's module hierarchy into the main module and
// lowers it to a dataflow graph. Clock ports are accepted and ignored (the
// simulator is single-clock); Reset-typed ports become ordinary 1-bit
// inputs; registers with reset specifications are lowered to a mux between
// the reset value and the connected next-state.
func Elaborate(c *Circuit) (*dfg.Graph, error) {
	flat, err := flatten(c)
	if err != nil {
		return nil, err
	}
	e := &elaborator{
		g:     &dfg.Graph{Name: c.Name},
		names: make(map[string]*binding),
	}
	if err := e.run(flat); err != nil {
		return nil, err
	}
	if err := e.g.Validate(); err != nil {
		return nil, err
	}
	return e.g, nil
}

// ParseAndElaborate is the one-call frontend entry point.
func ParseAndElaborate(src string) (*dfg.Graph, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Elaborate(c)
}

// flatten recursively inlines instances into a single synthetic module.
// Instance ports become wires named "<inst>.<port>", so parent references
// like x.out resolve without special cases.
func flatten(c *Circuit) (*Module, error) {
	main := c.MainModule()
	out := &Module{Name: main.Name, Ports: main.Ports}
	if err := inline(c, main, "", out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

const maxInstanceDepth = 64

func inline(c *Circuit, m *Module, prefix string, out *Module, depth int) error {
	if depth > maxInstanceDepth {
		return fmt.Errorf("firrtl: instance nesting exceeds %d (recursive modules?)", maxInstanceDepth)
	}
	for _, s := range m.Stmts {
		switch s := s.(type) {
		case *InstDecl:
			sub := c.FindModule(s.Module)
			if sub == nil {
				return fmt.Errorf("firrtl:%d: instance %q of unknown module %q", s.Line, s.Name, s.Module)
			}
			instPrefix := prefix + s.Name + "."
			for _, p := range sub.Ports {
				w := p.Width
				if p.Type == TypeClock {
					// Clock ports carry no data; keep them as 1-bit wires
					// so connects to them elaborate, then let DCE drop them.
					w = 1
				}
				out.Stmts = append(out.Stmts, &WireDecl{Name: instPrefix + p.Name, Width: w, Line: p.Line})
				if p.Dir == DirInput && p.Type != TypeUInt {
					// Undriven clock/reset wires default to zero.
					out.Stmts = append(out.Stmts, &Connect{
						LHS:  RefExpr{Name: instPrefix + p.Name, Line: p.Line},
						RHS:  &LitExpr{Width: w, Value: 0, Line: p.Line},
						Line: p.Line,
					})
				}
			}
			if err := inline(c, sub, instPrefix, out, depth+1); err != nil {
				return err
			}
		default:
			out.Stmts = append(out.Stmts, prefixStmt(s, prefix))
		}
	}
	return nil
}

func prefixStmt(s Stmt, prefix string) Stmt {
	if prefix == "" {
		return s
	}
	switch s := s.(type) {
	case *WireDecl:
		c := *s
		c.Name = prefix + c.Name
		return &c
	case *RegDecl:
		c := *s
		c.Name = prefix + c.Name
		c.ResetSig = prefixExpr(c.ResetSig, prefix)
		c.Init = prefixExpr(c.Init, prefix)
		return &c
	case *NodeDecl:
		c := *s
		c.Name = prefix + c.Name
		c.Expr = prefixExpr(c.Expr, prefix)
		return &c
	case *Connect:
		c := *s
		c.LHS = RefExpr{Name: prefix + c.LHS.Name, Line: c.LHS.Line}
		c.RHS = prefixExpr(c.RHS, prefix)
		return &c
	default:
		return s
	}
}

func prefixExpr(e Expr, prefix string) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *RefExpr:
		return &RefExpr{Name: prefix + e.Name, Line: e.Line}
	case *PrimExpr:
		c := *e
		c.Args = make([]Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = prefixExpr(a, prefix)
		}
		return &c
	default:
		return e
	}
}

// binding is one named signal during elaboration.
type binding struct {
	kind  bindKind
	width int
	node  dfg.NodeID // valid for inputs/regs immediately; nets once resolved
	// net state
	driver Expr
	state  uint8 // 0 unresolved, 1 resolving, 2 resolved
	line   int
	// reg state
	decl       *RegDecl
	nextDriver Expr
	nextLine   int
}

type bindKind uint8

const (
	bindInput bindKind = iota
	bindReg
	bindNet  // wire, output port, flattened instance port
	bindNode // node declaration (expression alias)
)

type elaborator struct {
	g     *dfg.Graph
	names map[string]*binding
	// regs lists the register bindings in declaration order: next-states
	// resolve in this order, never in names' map order, so NodeIDs — and with
	// them the whole LI layout — are a function of the source text alone.
	regs []*binding
}

func (e *elaborator) errf(line int, format string, args ...any) error {
	return fmt.Errorf("firrtl:%d: %s", line, fmt.Sprintf(format, args...))
}

func (e *elaborator) declare(name string, b *binding, line int) error {
	if _, dup := e.names[name]; dup {
		return e.errf(line, "duplicate declaration of %q", name)
	}
	e.names[name] = b
	return nil
}

func (e *elaborator) run(m *Module) error {
	// Ports.
	var outputs []PortDecl
	for _, p := range m.Ports {
		switch {
		case p.Dir == DirInput && p.Type == TypeClock:
			cl := e.g.AddConst(0, 1)
			if err := e.declare(p.Name, &binding{kind: bindNode, width: 1, node: cl, state: 2}, p.Line); err != nil {
				return err
			}
		case p.Dir == DirInput:
			id := e.g.AddInput(p.Name, p.Width)
			if err := e.declare(p.Name, &binding{kind: bindInput, width: p.Width, node: id}, p.Line); err != nil {
				return err
			}
		default: // output
			if err := e.declare(p.Name, &binding{kind: bindNet, width: p.Width, line: p.Line}, p.Line); err != nil {
				return err
			}
			outputs = append(outputs, p)
		}
	}
	// Pass 1: declarations and connect recording.
	for _, s := range m.Stmts {
		switch s := s.(type) {
		case *WireDecl:
			if err := e.declare(s.Name, &binding{kind: bindNet, width: s.Width, line: s.Line}, s.Line); err != nil {
				return err
			}
		case *RegDecl:
			var init uint64
			if s.HasReset {
				lit, ok := s.Init.(*LitExpr)
				if !ok {
					return e.errf(s.Line, "register %q: reset value must be a literal", s.Name)
				}
				init = lit.Value
			}
			b := &binding{kind: bindReg, width: s.Width, node: e.g.AddReg(s.Name, s.Width, init), decl: s}
			if err := e.declare(s.Name, b, s.Line); err != nil {
				return err
			}
			e.regs = append(e.regs, b)
		case *NodeDecl:
			if err := e.declare(s.Name, &binding{kind: bindNode, width: -1, driver: s.Expr, line: s.Line}, s.Line); err != nil {
				return err
			}
		case *Connect:
			b, ok := e.names[s.LHS.Name]
			if !ok {
				return e.errf(s.Line, "connect to undeclared signal %q", s.LHS.Name)
			}
			switch b.kind {
			case bindNet:
				b.driver = s.RHS // last connect wins
				b.line = s.Line
			case bindReg:
				b.nextDriver = s.RHS
				b.nextLine = s.Line
			case bindInput:
				return e.errf(s.Line, "cannot connect to input %q", s.LHS.Name)
			case bindNode:
				return e.errf(s.Line, "cannot connect to node %q", s.LHS.Name)
			}
		case *Skip:
		case *InstDecl:
			return e.errf(s.Line, "internal: instance %q survived flattening", s.Name)
		}
	}
	// Pass 2: resolve register next-states (pulling nets and nodes along).
	for _, b := range e.regs {
		if b.nextDriver == nil {
			return e.errf(b.decl.Line, "register %q has no next-state connect", b.decl.Name)
		}
		next, err := e.eval(b.nextDriver)
		if err != nil {
			return err
		}
		next, err = e.fit(next, b.width, b.nextLine, "register "+b.decl.Name)
		if err != nil {
			return err
		}
		if b.decl.HasReset {
			rst, err := e.eval(b.decl.ResetSig)
			if err != nil {
				return err
			}
			initLit := b.decl.Init.(*LitExpr)
			initNode := e.g.AddConst(initLit.Value, b.width)
			next = e.g.AddOp(wire.Mux, b.width, rst, initNode, next)
		}
		e.g.SetRegNext(b.node, next)
	}
	// Pass 3: outputs.
	for _, p := range outputs {
		b := e.names[p.Name]
		id, err := e.resolveNet(p.Name, b)
		if err != nil {
			return err
		}
		e.g.AddOutput(p.Name, id)
	}
	return nil
}

// fit adapts a value to an expected width: equal passes through, narrower is
// implicitly zero-extended (UInt connect semantics), wider is an error.
func (e *elaborator) fit(id dfg.NodeID, width int, line int, what string) (dfg.NodeID, error) {
	got := int(e.g.Node(id).Width)
	switch {
	case got == width:
		return id, nil
	case got < width:
		return e.g.AddOp(wire.Ident, width, id), nil
	default:
		return dfg.Invalid, e.errf(line, "%s: cannot connect %d-bit value to %d-bit signal", what, got, width)
	}
}

func (e *elaborator) resolveNet(name string, b *binding) (dfg.NodeID, error) {
	switch b.state {
	case 2:
		return b.node, nil
	case 1:
		return dfg.Invalid, e.errf(b.line, "combinational cycle through %q", name)
	}
	if b.driver == nil {
		return dfg.Invalid, e.errf(b.line, "signal %q is never driven", name)
	}
	b.state = 1
	id, err := e.eval(b.driver)
	if err != nil {
		return dfg.Invalid, err
	}
	id, err = e.fit(id, b.width, b.line, "signal "+name)
	if err != nil {
		return dfg.Invalid, err
	}
	b.node = id
	b.state = 2
	return id, nil
}

func (e *elaborator) resolveNode(name string, b *binding) (dfg.NodeID, error) {
	switch b.state {
	case 2:
		return b.node, nil
	case 1:
		return dfg.Invalid, e.errf(b.line, "combinational cycle through node %q", name)
	}
	b.state = 1
	id, err := e.eval(b.driver)
	if err != nil {
		return dfg.Invalid, err
	}
	b.node = id
	b.width = int(e.g.Node(id).Width)
	b.state = 2
	return id, nil
}

func (e *elaborator) eval(x Expr) (dfg.NodeID, error) {
	switch x := x.(type) {
	case *LitExpr:
		if x.Value&^wire.Mask(x.Width) != 0 {
			return dfg.Invalid, e.errf(x.Line, "literal %d does not fit in %d bits", x.Value, x.Width)
		}
		return e.g.AddConst(x.Value, x.Width), nil
	case *RefExpr:
		b, ok := e.names[x.Name]
		if !ok {
			return dfg.Invalid, e.errf(x.Line, "reference to undeclared signal %q", x.Name)
		}
		switch b.kind {
		case bindInput, bindReg:
			return b.node, nil
		case bindNet:
			return e.resolveNet(x.Name, b)
		default:
			return e.resolveNode(x.Name, b)
		}
	case *PrimExpr:
		return e.evalPrim(x)
	}
	return dfg.Invalid, fmt.Errorf("firrtl: unknown expression %T", x)
}

func (e *elaborator) evalPrim(x *PrimExpr) (dfg.NodeID, error) {
	args := make([]dfg.NodeID, len(x.Args))
	widths := make([]int, len(x.Args))
	for i, a := range x.Args {
		id, err := e.eval(a)
		if err != nil {
			return dfg.Invalid, err
		}
		args[i] = id
		widths[i] = int(e.g.Node(id).Width)
	}
	// FIRRTL's width-growth rules are applied with a cap at 64 bits: the
	// subset wraps results that would need more (documented in the package
	// comment), which matches wire.Eval's masked semantics exactly.
	capWidth := func(w int) int {
		if w > 64 {
			return 64
		}
		if w < 1 {
			return 1
		}
		return w
	}
	param := func(i int) uint64 { return x.Params[i] }
	cnst := func(v uint64, w int) dfg.NodeID { return e.g.AddConst(v, w) }

	switch x.Op {
	case "add", "sub":
		w := capWidth(max(widths[0], widths[1]) + 1)
		op := wire.Add
		if x.Op == "sub" {
			op = wire.Sub
		}
		return e.g.AddOp(op, w, args[0], args[1]), nil
	case "mul":
		return e.g.AddOp(wire.Mul, capWidth(widths[0]+widths[1]), args[0], args[1]), nil
	case "div":
		return e.g.AddOp(wire.Div, widths[0], args[0], args[1]), nil
	case "rem":
		return e.g.AddOp(wire.Rem, min(widths[0], widths[1]), args[0], args[1]), nil
	case "lt", "leq", "gt", "geq", "eq", "neq":
		ops := map[string]wire.Op{"lt": wire.Lt, "leq": wire.Leq, "gt": wire.Gt,
			"geq": wire.Geq, "eq": wire.Eq, "neq": wire.Neq}
		return e.g.AddOp(ops[x.Op], 1, args[0], args[1]), nil
	case "and", "or", "xor":
		ops := map[string]wire.Op{"and": wire.And, "or": wire.Or, "xor": wire.Xor}
		return e.g.AddOp(ops[x.Op], max(widths[0], widths[1]), args[0], args[1]), nil
	case "not":
		return e.g.AddOp(wire.Not, widths[0], args[0]), nil
	case "neg":
		return e.g.AddOp(wire.Neg, capWidth(widths[0]+1), args[0]), nil
	case "cat":
		if widths[0]+widths[1] > 64 {
			return dfg.Invalid, e.errf(x.Line, "cat: %d+%d bits exceeds the 64-bit subset", widths[0], widths[1])
		}
		return e.g.AddOp(wire.Cat, widths[0]+widths[1], args[0], args[1], cnst(uint64(widths[1]), 7)), nil
	case "bits":
		hi, lo := param(0), param(1)
		if lo > hi || hi >= uint64(widths[0]) {
			return dfg.Invalid, e.errf(x.Line, "bits(%d, %d) out of range for %d-bit operand", hi, lo, widths[0])
		}
		return e.g.AddOp(wire.Bits, int(hi-lo)+1, args[0], cnst(hi, 7), cnst(lo, 7)), nil
	case "head":
		n := param(0)
		if n < 1 || n > uint64(widths[0]) {
			return dfg.Invalid, e.errf(x.Line, "head(%d) out of range for %d-bit operand", n, widths[0])
		}
		w := uint64(widths[0])
		return e.g.AddOp(wire.Bits, int(n), args[0], cnst(w-1, 7), cnst(w-n, 7)), nil
	case "tail":
		n := param(0)
		if n >= uint64(widths[0]) {
			return dfg.Invalid, e.errf(x.Line, "tail(%d) out of range for %d-bit operand", n, widths[0])
		}
		w := uint64(widths[0])
		return e.g.AddOp(wire.Bits, int(w-n), args[0], cnst(w-n-1, 7), cnst(0, 7)), nil
	case "pad":
		n := int(param(0))
		if n > 64 {
			return dfg.Invalid, e.errf(x.Line, "pad(%d) exceeds the 64-bit subset", n)
		}
		return e.g.AddOp(wire.Ident, max(widths[0], n), args[0]), nil
	case "shl":
		n := param(0)
		if n > 127 {
			return dfg.Invalid, e.errf(x.Line, "shl(%d): shift amount out of range", n)
		}
		return e.g.AddOp(wire.Shl, capWidth(widths[0]+int(n)), args[0], cnst(n, 7)), nil
	case "shr":
		n := param(0)
		if n > 127 {
			return dfg.Invalid, e.errf(x.Line, "shr(%d): shift amount out of range", n)
		}
		return e.g.AddOp(wire.Shr, capWidth(widths[0]-int(n)), args[0], cnst(n, 7)), nil
	case "dshl":
		maxShift := 64
		if widths[1] < 7 {
			maxShift = (1 << widths[1]) - 1
		}
		return e.g.AddOp(wire.Shl, capWidth(widths[0]+maxShift), args[0], args[1]), nil
	case "dshr":
		return e.g.AddOp(wire.Shr, widths[0], args[0], args[1]), nil
	case "mux":
		return e.g.AddOp(wire.Mux, max(widths[1], widths[2]), args[0], args[1], args[2]), nil
	case "andr":
		m := cnst(wire.Mask(widths[0]), widths[0])
		return e.g.AddOp(wire.AndR, 1, args[0], m), nil
	case "orr":
		return e.g.AddOp(wire.OrR, 1, args[0]), nil
	case "xorr":
		return e.g.AddOp(wire.XorR, 1, args[0]), nil
	case "asUInt":
		return args[0], nil
	case "validif":
		// validif's condition marks don't-care regions; simulation keeps
		// the value unconditionally.
		return args[1], nil
	}
	return dfg.Invalid, e.errf(x.Line, "unsupported primitive %q", x.Op)
}
