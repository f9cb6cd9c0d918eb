package firrtl

import (
	"fmt"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// Elaborate lowers the circuit to a dataflow graph, elaborating each
// instance where it is declared: its ports and statements are declared under
// its instance path ("u." in the main module, "u.v." one level down), so a
// parent's x.out names the instance port wire "x.out". Clock ports are
// accepted and ignored (the simulator is single-clock); Reset-typed ports
// become ordinary 1-bit inputs; registers with reset specifications are
// lowered to a mux between the reset value and the connected next-state.
// A circuit that would elaborate to more than maxElaboratedStmts statements
// or maxElaboratedNodes nodes is refused before anything is declared.
//
// The node array and the declared names are reserved once from the same
// walk's counts, operands and bindings are cut from shared chunks, and each
// distinct constant (value, width) is one node, its first occurrence.
func Elaborate(c *Circuit) (*dfg.Graph, error) {
	main := c.MainModule()
	size := elaboratedSize(c, main, map[*Module]elabSize{})
	switch {
	case size.stmts > maxElaboratedStmts:
		return nil, fmt.Errorf("firrtl: module %q elaborates to more than %d statements and instance ports", main.Name, maxElaboratedStmts)
	case size.nodes > maxElaboratedNodes:
		return nil, fmt.Errorf("firrtl: module %q elaborates to more than %d expression nodes", main.Name, maxElaboratedNodes)
	}
	e := &elaborator{
		c: c,
		g: &dfg.Graph{
			Name:  c.Name,
			Nodes: make([]dfg.Node, 0, size.reservedNodes()),
			Regs:  make([]dfg.Reg, 0, size.regs),
		},
		names:  make(map[string]*binding, size.names),
		regs:   make([]*binding, 0, size.regs),
		consts: make(map[constKey]dfg.NodeID),
		scopes: []string{""},
	}
	if err := e.run(main); err != nil {
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

const maxInstanceDepth = 64

// maxElaboratedStmts bounds what one circuit elaborates to, counting each
// port, statement and instance port once per instance: k modules that each
// instantiate the previous one twice would otherwise elaborate 2^k
// instances. r8, the largest generated design, counts 231,567.
const maxElaboratedStmts = 1 << 22

// maxElaboratedNodes bounds the graph nodes one circuit's declarations and
// expressions count, once per instance, so that instance doubling cannot
// multiply one deep expression past it either. r8 counts 372,359.
const maxElaboratedNodes = 1 << 22

// elabSize is what a module elaborates to: stmts in the units
// maxElaboratedStmts counts, an upper bound on its graph nodes (every
// literal counted as if none were shared, every node declaration and
// connect as if it were evaluated), and its declared names and registers.
// Each count saturates just past its bound.
type elabSize struct{ stmts, nodes, names, regs int }

// reservedNodes is the node array's capacity: the nodes counted, but at most
// two per statement, since unread nodes and overwritten connects are counted
// yet never built, and the 7-bit parameter constants evalPrim mints, of
// which at most 128 are distinct. A larger graph grows the array by append.
func (s elabSize) reservedNodes() int { return min(s.nodes, 2*s.stmts) + 128 }

func (s *elabSize) add(o elabSize) {
	sat := func(a, b int) int { return min(a+b, max(maxElaboratedStmts, maxElaboratedNodes)+1) }
	s.stmts, s.nodes = sat(s.stmts, o.stmts), sat(s.nodes, o.nodes)
	s.names, s.regs = sat(s.names, o.names), sat(s.regs, o.regs)
}

// elaboratedSize is what m elaborates to. It memoises each module's size in
// size; an instance of a module already being counted (recursion, which the
// nesting bound reports) or of an unknown module counts only its
// declaration. A port is a net fitted to its width and perhaps driven by a
// literal (an input or a constant in the main module).
func elaboratedSize(c *Circuit, m *Module, size map[*Module]elabSize) elabSize {
	if n, ok := size[m]; ok {
		return n
	}
	size[m] = elabSize{}
	n := elabSize{stmts: len(m.Ports) + len(m.Stmts), nodes: 2 * len(m.Ports), names: len(m.Ports)}
	for _, s := range m.Stmts {
		switch s := s.(type) {
		case *WireDecl:
			n.add(elabSize{nodes: 1, names: 1})
		case *RegDecl:
			// The register and its fitted next-state; a reset adds its
			// literal and mux.
			n.add(elabSize{nodes: 2, names: 1, regs: 1})
			if s.HasReset {
				n.add(elabSize{nodes: 2 + exprNodes(s.ResetSig)})
			}
		case *NodeDecl:
			n.add(elabSize{nodes: exprNodes(s.Expr), names: 1})
		case *Connect:
			n.add(elabSize{nodes: exprNodes(s.RHS)})
		case *InstDecl:
			if sub := c.FindModule(s.Module); sub != nil {
				n.add(elaboratedSize(c, sub, size))
			}
		}
	}
	size[m] = n
	return n
}

// exprNodes bounds the nodes eval adds for x, less the 7-bit parameter
// constants: a primitive's operation, andr's mask, and each literal. It
// recurses once per level, as eval does, within the parser's maxExprDepth.
func exprNodes(x Expr) int {
	switch x := x.(type) {
	case *LitExpr:
		return 1
	case *PrimExpr:
		n := 1
		switch x.Op {
		case "asUInt", "validif":
			n = 0 // an operand passes through
		case "andr":
			n = 2
		}
		for _, a := range x.Args {
			n += exprNodes(a)
		}
		return n
	}
	return 0
}

// binding is one named signal during elaboration.
type binding struct {
	kind  bindKind
	state uint8 // 0 unresolved, 1 resolving, 2 resolved
	// scope indexes elaborator.scopes: the instance path that driver's
	// names are relative to.
	scope int32
	width int
	node  dfg.NodeID // valid for inputs/regs immediately; nets and nodes once resolved
	// regScope is a register's own instance path, which its name and reset
	// signal are relative to.
	regScope int32
	driver   Expr // a net's last connect, a node's expression, a register's next-state
	line     int  // the driver's line (a net's declaration while undriven)
	decl     *RegDecl
}

type bindKind uint8

const (
	bindInput bindKind = iota
	bindReg
	bindNet  // wire, output port, instance port
	bindNode // node declaration (expression alias)
)

type elaborator struct {
	c     *Circuit
	g     *dfg.Graph
	names map[string]*binding
	// bindings holds names' bindings, operands every operation's Args.
	bindings slab[binding]
	operands slab[dfg.NodeID]
	// consts holds the one node of each constant.
	consts map[constKey]dfg.NodeID
	// scopes holds every instance path, the main module's "" first.
	scopes []string
	buf    []byte // lookup's scratch key
	// regs lists the register bindings in declaration order, which is g.Regs'
	// order: next-states resolve in this order, never in names' map order, so
	// NodeIDs — and with them the whole LI layout — are a function of the
	// source text alone.
	regs []*binding
}

// constKey names a constant: its value, already masked, and its width.
type constKey struct {
	val   uint64
	width int
}

// cnst returns the node of the constant val (masked to width), adding it on
// first use.
func (e *elaborator) cnst(val uint64, width int) dfg.NodeID {
	k := constKey{val & wire.Mask(width), width}
	id, ok := e.consts[k]
	if !ok {
		id = e.g.AddConst(val, width)
		e.consts[k] = id
	}
	return id
}

// op adds an operation whose operands are cut from the operands slab.
func (e *elaborator) op(op wire.Op, width int, args ...dfg.NodeID) dfg.NodeID {
	operands := e.operands.cut(len(args))
	copy(operands, args)
	return e.g.AddOp(op, width, operands...)
}

func (e *elaborator) errf(line int, format string, args ...any) error {
	return fmt.Errorf("firrtl:%d: %s", line, fmt.Sprintf(format, args...))
}

// full is name, declared or referenced in scope, as the graph and error
// messages spell it.
func (e *elaborator) full(scope int32, name string) string { return e.scopes[scope] + name }

// lookup finds the binding name refers to in scope without allocating the
// full name.
func (e *elaborator) lookup(scope int32, name string) (*binding, bool) {
	e.buf = append(append(e.buf[:0], e.scopes[scope]...), name...)
	b, ok := e.names[string(e.buf)]
	return b, ok
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
		var b *binding
		switch {
		case p.Dir == DirInput && p.Type == TypeClock:
			b = e.bindings.put(binding{kind: bindNode, node: e.cnst(0, 1), state: 2})
		case p.Dir == DirInput:
			b = e.bindings.put(binding{kind: bindInput, width: p.Width, node: e.g.AddInput(p.Name, p.Width)})
		default: // output
			b = e.bindings.put(binding{kind: bindNet, width: p.Width, line: p.Line})
			outputs = append(outputs, p)
		}
		if err := e.declare(p.Name, b, p.Line); err != nil {
			return err
		}
	}
	// Pass 1: declarations and connect recording, instances included.
	if err := e.body(m, 0, 0); err != nil {
		return err
	}
	// Pass 2: resolve register next-states (pulling nets and nodes along).
	for i, b := range e.regs {
		if b.driver == nil {
			return e.errf(b.decl.Line, "register %q has no next-state connect", e.full(b.regScope, b.decl.Name))
		}
		next, err := e.eval(b.driver, b.scope)
		if err != nil {
			return err
		}
		next, err = e.fit(next, b.width, b.line, "register", b.regScope, b.decl.Name)
		if err != nil {
			return err
		}
		if b.decl.HasReset {
			rst, err := e.eval(b.decl.ResetSig, b.regScope)
			if err != nil {
				return err
			}
			initLit := b.decl.Init.(*LitExpr)
			initNode := e.cnst(initLit.Value, b.width)
			next = e.op(wire.Mux, b.width, rst, initNode, next)
		}
		e.g.Regs[i].Next = next
	}
	// Pass 3: outputs.
	for _, p := range outputs {
		id, err := e.resolve(e.names[p.Name], 0, p.Name)
		if err != nil {
			return err
		}
		e.g.AddOutput(p.Name, id)
	}
	return nil
}

// body declares m's statements under the instance path scope and records
// its connects, elaborating each instance where it is declared.
func (e *elaborator) body(m *Module, scope int32, depth int) error {
	if depth > maxInstanceDepth {
		return fmt.Errorf("firrtl: instance nesting exceeds %d (recursive modules?)", maxInstanceDepth)
	}
	for _, s := range m.Stmts {
		var err error
		switch s := s.(type) {
		case *WireDecl:
			err = e.declare(e.full(scope, s.Name), e.bindings.put(binding{kind: bindNet, width: s.Width, line: s.Line}), s.Line)
		case *RegDecl:
			name := e.full(scope, s.Name)
			var init uint64
			if s.HasReset {
				lit, ok := s.Init.(*LitExpr)
				if !ok {
					return e.errf(s.Line, "register %q: reset value must be a literal", name)
				}
				init = lit.Value
			}
			b := e.bindings.put(binding{kind: bindReg, width: s.Width, node: e.g.AddReg(name, s.Width, init), regScope: scope, decl: s})
			e.regs = append(e.regs, b)
			err = e.declare(name, b, s.Line)
		case *NodeDecl:
			err = e.declare(e.full(scope, s.Name), e.bindings.put(binding{kind: bindNode, scope: scope, driver: s.Expr, line: s.Line}), s.Line)
		case *Connect:
			b, ok := e.lookup(scope, s.LHS.Name)
			switch {
			case !ok:
				err = e.errf(s.Line, "connect to undeclared signal %q", e.full(scope, s.LHS.Name))
			case b.kind == bindInput:
				err = e.errf(s.Line, "cannot connect to input %q", e.full(scope, s.LHS.Name))
			case b.kind == bindNode:
				err = e.errf(s.Line, "cannot connect to node %q", e.full(scope, s.LHS.Name))
			default:
				b.driver, b.scope, b.line = s.RHS, scope, s.Line // last connect wins
			}
		case *InstDecl:
			err = e.inst(s, scope, depth)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// inst declares an instance's port wires under path+inst. — clock and reset
// inputs default to zero — and then its module's statements.
func (e *elaborator) inst(s *InstDecl, scope int32, depth int) error {
	sub := e.c.FindModule(s.Module)
	if sub == nil {
		return fmt.Errorf("firrtl:%d: instance %q of unknown module %q", s.Line, s.Name, s.Module)
	}
	path := e.full(scope, s.Name) + "."
	for _, p := range sub.Ports {
		b := e.bindings.put(binding{kind: bindNet, width: p.Width, line: p.Line})
		if p.Type == TypeClock {
			// Clock ports carry no data; keep them as 1-bit wires so
			// connects to them elaborate, then let DCE drop them.
			b.width = 1
		}
		if p.Dir == DirInput && p.Type != TypeUInt {
			b.driver = &LitExpr{Width: b.width, Line: p.Line}
		}
		if err := e.declare(path+p.Name, b, p.Line); err != nil {
			return err
		}
	}
	e.scopes = append(e.scopes, path)
	return e.body(sub, int32(len(e.scopes)-1), depth+1)
}

// fit adapts a value to an expected width: equal passes through, narrower is
// implicitly zero-extended (UInt connect semantics), wider is an error naming
// the signal (what, then its name in scope).
func (e *elaborator) fit(id dfg.NodeID, width, line int, what string, scope int32, name string) (dfg.NodeID, error) {
	got := int(e.g.Node(id).Width)
	switch {
	case got == width:
		return id, nil
	case got < width:
		return e.op(wire.Ident, width, id), nil
	default:
		return dfg.Invalid, e.errf(line, "%s %s: cannot connect %d-bit value to %d-bit signal", what, e.full(scope, name), got, width)
	}
}

// resolve returns the node a net or node binding stands for, evaluating its
// driver, in the driver's scope, on first use: a net is fitted to its
// declared width, a node takes its expression's width. name, referenced in
// scope, names the binding in error messages.
func (e *elaborator) resolve(b *binding, scope int32, name string) (dfg.NodeID, error) {
	switch b.state {
	case 2:
		return b.node, nil
	case 1:
		what := ""
		if b.kind == bindNode {
			what = "node "
		}
		return dfg.Invalid, e.errf(b.line, "combinational cycle through %s%q", what, e.full(scope, name))
	}
	if b.driver == nil {
		return dfg.Invalid, e.errf(b.line, "signal %q is never driven", e.full(scope, name))
	}
	b.state = 1
	id, err := e.eval(b.driver, b.scope)
	if err != nil {
		return dfg.Invalid, err
	}
	if b.kind == bindNet {
		if id, err = e.fit(id, b.width, b.line, "signal", scope, name); err != nil {
			return dfg.Invalid, err
		}
	}
	b.node, b.state = id, 2
	return id, nil
}

// eval lowers an expression whose names are relative to scope.
func (e *elaborator) eval(x Expr, scope int32) (dfg.NodeID, error) {
	switch x := x.(type) {
	case *LitExpr:
		if x.Value&^wire.Mask(x.Width) != 0 {
			return dfg.Invalid, e.errf(x.Line, "literal %d does not fit in %d bits", x.Value, x.Width)
		}
		return e.cnst(x.Value, x.Width), nil
	case *RefExpr:
		b, ok := e.lookup(scope, x.Name)
		if !ok {
			return dfg.Invalid, e.errf(x.Line, "reference to undeclared signal %q", e.full(scope, x.Name))
		}
		if b.kind == bindInput || b.kind == bindReg {
			return b.node, nil
		}
		return e.resolve(b, scope, x.Name)
	case *PrimExpr:
		return e.evalPrim(x, scope)
	}
	return dfg.Invalid, fmt.Errorf("firrtl: unknown expression %T", x)
}

func (e *elaborator) evalPrim(x *PrimExpr, scope int32) (dfg.NodeID, error) {
	var args [3]dfg.NodeID
	var widths [3]int
	for i, a := range x.Args {
		id, err := e.eval(a, scope)
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

	switch x.Op {
	case "add", "sub":
		w := capWidth(max(widths[0], widths[1]) + 1)
		op := wire.Add
		if x.Op == "sub" {
			op = wire.Sub
		}
		return e.op(op, w, args[0], args[1]), nil
	case "mul":
		return e.op(wire.Mul, capWidth(widths[0]+widths[1]), args[0], args[1]), nil
	case "div":
		return e.op(wire.Div, widths[0], args[0], args[1]), nil
	case "rem":
		return e.op(wire.Rem, min(widths[0], widths[1]), args[0], args[1]), nil
	case "lt":
		return e.op(wire.Lt, 1, args[0], args[1]), nil
	case "leq":
		return e.op(wire.Leq, 1, args[0], args[1]), nil
	case "gt":
		return e.op(wire.Gt, 1, args[0], args[1]), nil
	case "geq":
		return e.op(wire.Geq, 1, args[0], args[1]), nil
	case "eq":
		return e.op(wire.Eq, 1, args[0], args[1]), nil
	case "neq":
		return e.op(wire.Neq, 1, args[0], args[1]), nil
	case "and":
		return e.op(wire.And, max(widths[0], widths[1]), args[0], args[1]), nil
	case "or":
		return e.op(wire.Or, max(widths[0], widths[1]), args[0], args[1]), nil
	case "xor":
		return e.op(wire.Xor, max(widths[0], widths[1]), args[0], args[1]), nil
	case "not":
		return e.op(wire.Not, widths[0], args[0]), nil
	case "neg":
		return e.op(wire.Neg, capWidth(widths[0]+1), args[0]), nil
	case "cat":
		if widths[0]+widths[1] > 64 {
			return dfg.Invalid, e.errf(x.Line, "cat: %d+%d bits exceeds the 64-bit subset", widths[0], widths[1])
		}
		return e.op(wire.Cat, widths[0]+widths[1], args[0], args[1], e.cnst(uint64(widths[1]), 7)), nil
	case "bits":
		hi, lo := param(0), param(1)
		if lo > hi || hi >= uint64(widths[0]) {
			return dfg.Invalid, e.errf(x.Line, "bits(%d, %d) out of range for %d-bit operand", hi, lo, widths[0])
		}
		return e.op(wire.Bits, int(hi-lo)+1, args[0], e.cnst(hi, 7), e.cnst(lo, 7)), nil
	case "head":
		n := param(0)
		if n < 1 || n > uint64(widths[0]) {
			return dfg.Invalid, e.errf(x.Line, "head(%d) out of range for %d-bit operand", n, widths[0])
		}
		w := uint64(widths[0])
		return e.op(wire.Bits, int(n), args[0], e.cnst(w-1, 7), e.cnst(w-n, 7)), nil
	case "tail":
		n := param(0)
		if n >= uint64(widths[0]) {
			return dfg.Invalid, e.errf(x.Line, "tail(%d) out of range for %d-bit operand", n, widths[0])
		}
		w := uint64(widths[0])
		return e.op(wire.Bits, int(w-n), args[0], e.cnst(w-n-1, 7), e.cnst(0, 7)), nil
	case "pad":
		n := int(param(0))
		if n > 64 {
			return dfg.Invalid, e.errf(x.Line, "pad(%d) exceeds the 64-bit subset", n)
		}
		return e.op(wire.Ident, max(widths[0], n), args[0]), nil
	case "shl":
		n := param(0)
		if n > 127 {
			return dfg.Invalid, e.errf(x.Line, "shl(%d): shift amount out of range", n)
		}
		return e.op(wire.Shl, capWidth(widths[0]+int(n)), args[0], e.cnst(n, 7)), nil
	case "shr":
		n := param(0)
		if n > 127 {
			return dfg.Invalid, e.errf(x.Line, "shr(%d): shift amount out of range", n)
		}
		return e.op(wire.Shr, capWidth(widths[0]-int(n)), args[0], e.cnst(n, 7)), nil
	case "dshl":
		maxShift := 64
		if widths[1] < 7 {
			maxShift = (1 << widths[1]) - 1
		}
		return e.op(wire.Shl, capWidth(widths[0]+maxShift), args[0], args[1]), nil
	case "dshr":
		return e.op(wire.Shr, widths[0], args[0], args[1]), nil
	case "mux":
		return e.op(wire.Mux, max(widths[1], widths[2]), args[0], args[1], args[2]), nil
	case "andr":
		m := e.cnst(wire.Mask(widths[0]), widths[0])
		return e.op(wire.AndR, 1, args[0], m), nil
	case "orr":
		return e.op(wire.OrR, 1, args[0]), nil
	case "xorr":
		return e.op(wire.XorR, 1, args[0]), nil
	case "asUInt":
		return args[0], nil
	case "validif":
		// validif's condition marks don't-care regions; simulation keeps
		// the value unconditionally.
		return args[1], nil
	}
	return dfg.Invalid, e.errf(x.Line, "unsupported primitive %q", x.Op)
}

// slabChunk is how many elements a slab allocates at a time.
const slabChunk = 256

// slab hands out elements of T from shared chunks, so the many small
// objects an elaboration makes cost one allocation per chunk, not one each.
// Elements never move: a chunk that cannot fit a request is left behind, not
// grown. The zero value allocates its first chunk on first use.
type slab[T any] struct{ chunk []T }

// put stores v in the slab and returns its address.
func (s *slab[T]) put(v T) *T {
	p := &s.cut(1)[0]
	*p = v
	return p
}

// cut returns n zeroed consecutive elements, capped at n.
func (s *slab[T]) cut(n int) []T {
	if len(s.chunk)+n > cap(s.chunk) {
		s.chunk = make([]T, 0, max(n, slabChunk))
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}
