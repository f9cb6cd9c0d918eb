package firrtl

import (
	"fmt"
	"strings"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// Emit serialises a dataflow graph as FIRRTL text that the package's own
// parser accepts and that elaborates to a behaviourally identical graph.
// It is used by the synthetic design generators (cmd/rteaal-gen) and by the
// parse/emit round-trip property tests.
//
// Because the graph's operation semantics are width-masked while FIRRTL
// primops have their own width-growth rules, every emitted expression is
// explicitly fitted (bits/pad) to the node's width, and shifts are rewritten
// to stay within the 64-bit subset (dynamic shifts become barrel-shifter
// mux cascades).
func Emit(g *dfg.Graph) (string, error) {
	e := &emitter{g: g, names: make([]string, len(g.Nodes))}
	return e.run()
}

type emitter struct {
	g     *dfg.Graph
	b     strings.Builder
	names []string
	tmpID int
}

func (e *emitter) run() (string, error) {
	g := e.g
	name := sanitize(g.Name)
	if name == "" {
		name = "main"
	}
	fmt.Fprintf(&e.b, "circuit %s :\n", name)
	fmt.Fprintf(&e.b, "  module %s :\n", name)
	fmt.Fprintf(&e.b, "    input clock : Clock\n")

	used := map[string]bool{"clock": true}
	unique := func(base string) string {
		base = sanitize(base)
		if base == "" {
			base = "sig"
		}
		cand := base
		for i := 2; used[cand]; i++ {
			cand = fmt.Sprintf("%s_%d", base, i)
		}
		used[cand] = true
		return cand
	}

	for _, p := range g.Inputs {
		n := g.Node(p.Node)
		e.names[p.Node] = unique(p.Name)
		fmt.Fprintf(&e.b, "    input %s : UInt<%d>\n", e.names[p.Node], n.Width)
	}
	outNames := make([]string, len(g.Outputs))
	for i, p := range g.Outputs {
		outNames[i] = unique(p.Name)
		fmt.Fprintf(&e.b, "    output %s : UInt<%d>\n", outNames[i], g.Node(p.Node).Width)
	}
	for _, r := range g.Regs {
		n := g.Node(r.Node)
		e.names[r.Node] = unique(n.Name)
		// A constant-false reset wires up the initial value without
		// affecting behaviour (the elaborator folds the reset mux away).
		fmt.Fprintf(&e.b, "    regreset %s : UInt<%d>, clock, UInt<1>(0), UInt<%d>(%d)\n",
			e.names[r.Node], n.Width, n.Width, r.Init)
	}

	// Operands precede their users, so id order defines every node before
	// its first reference; a graph that breaks this fails in e.ref.
	for i := range g.Nodes {
		id := dfg.NodeID(i)
		if g.Node(id).Kind != dfg.KindOp {
			continue
		}
		expr, err := e.opExpr(id)
		if err != nil {
			return "", err
		}
		e.names[id] = unique(fmt.Sprintf("n%d", id))
		fmt.Fprintf(&e.b, "    node %s = %s\n", e.names[id], expr)
	}
	for _, r := range g.Regs {
		ref, err := e.ref(r.Next)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&e.b, "    %s <= %s\n", e.names[r.Node], ref)
	}
	for i, p := range g.Outputs {
		ref, err := e.ref(p.Node)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&e.b, "    %s <= %s\n", outNames[i], ref)
	}
	return e.b.String(), nil
}

// ref returns an expression string for a node usable as an operand, along
// with emitting nothing: sources inline, ops use their assigned node name.
func (e *emitter) ref(id dfg.NodeID) (string, error) {
	n := e.g.Node(id)
	switch n.Kind {
	case dfg.KindConst:
		return fmt.Sprintf("UInt<%d>(%d)", n.Width, n.Val), nil
	case dfg.KindInput, dfg.KindReg:
		if e.names[id] == "" {
			return "", fmt.Errorf("firrtl: emit: unnamed source node %d", id)
		}
		return e.names[id], nil
	default:
		if e.names[id] == "" {
			return "", fmt.Errorf("firrtl: emit: op node %d referenced before definition", id)
		}
		return e.names[id], nil
	}
}

// expr describes an emitted expression and its natural FIRRTL width.
type expr struct {
	s string
	w int
}

// fit coerces an expression to exactly the target width.
func fit(x expr, w int) expr {
	switch {
	case x.w == w:
		return x
	case x.w > w:
		return expr{fmt.Sprintf("bits(%s, %d, 0)", x.s, w-1), w}
	default:
		return expr{fmt.Sprintf("pad(%s, %d)", x.s, w), w}
	}
}

func (e *emitter) operand(id dfg.NodeID) (expr, error) {
	s, err := e.ref(id)
	if err != nil {
		return expr{}, err
	}
	return expr{s, int(e.g.Node(id).Width)}, nil
}

// opExpr renders the expression for one operation node, fitted to the
// node's width.
func (e *emitter) opExpr(id dfg.NodeID) (string, error) {
	n := e.g.Node(id)
	w := int(n.Width)
	args := make([]expr, len(n.Args))
	for i, a := range n.Args {
		x, err := e.operand(a)
		if err != nil {
			return "", err
		}
		args[i] = x
	}
	bin := func(op string, grow func(a, b int) int) string {
		nat := grow(args[0].w, args[1].w)
		if nat > 64 {
			nat = 64 // the frontend caps widths at 64 with wrapping
		}
		return fit(expr{fmt.Sprintf("%s(%s, %s)", op, args[0].s, args[1].s), nat}, w).s
	}
	switch n.Op {
	case wire.Add:
		return bin("add", func(a, b int) int { return max(a, b) + 1 }), nil
	case wire.Sub:
		// sub wraps at its natural width max(a,b)+1, so when the node is
		// wider the operands must be padded up first to keep the wrap
		// point at the node width.
		sw := max(max(args[0].w, args[1].w), w)
		nat := sw + 1
		if nat > 64 {
			nat = 64
		}
		return fit(expr{fmt.Sprintf("sub(%s, %s)", pad(args[0], sw), pad(args[1], sw)), nat}, w).s, nil
	case wire.Mul:
		return bin("mul", func(a, b int) int { return a + b }), nil
	case wire.Div:
		return bin("div", func(a, b int) int { return a }), nil
	case wire.Rem:
		return bin("rem", func(a, b int) int { return min(a, b) }), nil
	case wire.And:
		return bin("and", func(a, b int) int { return max(a, b) }), nil
	case wire.Or:
		return bin("or", func(a, b int) int { return max(a, b) }), nil
	case wire.Xor:
		return bin("xor", func(a, b int) int { return max(a, b) }), nil
	case wire.Eq, wire.Neq, wire.Lt, wire.Leq, wire.Gt, wire.Geq:
		ops := map[wire.Op]string{wire.Eq: "eq", wire.Neq: "neq", wire.Lt: "lt",
			wire.Leq: "leq", wire.Gt: "gt", wire.Geq: "geq"}
		return bin(ops[n.Op], func(a, b int) int { return 1 }), nil
	case wire.AndR:
		// andr(x, m) has exactly eq(x, m) semantics for any mask operand.
		return bin("eq", func(a, b int) int { return 1 }), nil
	case wire.OrR:
		return fit(expr{fmt.Sprintf("orr(%s)", args[0].s), 1}, w).s, nil
	case wire.XorR:
		return fit(expr{fmt.Sprintf("xorr(%s)", args[0].s), 1}, w).s, nil
	case wire.Not:
		return fit(expr{fmt.Sprintf("not(%s)", fit(args[0], w).s), w}, w).s, nil
	case wire.Neg:
		return fit(expr{fmt.Sprintf("neg(%s)", fit(args[0], w).s), min(w+1, 64)}, w).s, nil
	case wire.Ident:
		return fit(args[0], w).s, nil
	case wire.Mux:
		bw := max(args[1].w, args[2].w)
		return fit(expr{fmt.Sprintf("mux(%s, %s, %s)",
			cond(args[0]), pad(args[1], bw), pad(args[2], bw)), bw}, w).s, nil
	case wire.MuxChain:
		return e.muxChainExpr(args, w)
	case wire.Cat:
		return e.catExpr(id, args, w)
	case wire.Bits:
		return e.bitsExpr(id, args, w)
	case wire.Shl:
		return e.shlExpr(id, args, w)
	case wire.Shr:
		return e.shrExpr(id, args, w)
	}
	return "", fmt.Errorf("firrtl: emit: unsupported op %v", n.Op)
}

// cond renders a value used as a mux selector: FIRRTL muxes want UInt<1>,
// and the engines treat any nonzero selector as true, which orr captures.
func cond(x expr) string {
	if x.w == 1 {
		return x.s
	}
	return fmt.Sprintf("orr(%s)", x.s)
}

func pad(x expr, w int) string { return fit(x, w).s }

func (e *emitter) muxChainExpr(args []expr, w int) (string, error) {
	// Nested muxes, innermost default first.
	out := pad(args[len(args)-1], w)
	for i := len(args) - 3; i >= 0; i -= 2 {
		out = fmt.Sprintf("mux(%s, %s, %s)", cond(args[i]), pad(args[i+1], w), out)
	}
	return out, nil
}

func (e *emitter) constArg(id dfg.NodeID, i int) (uint64, bool) {
	a := e.g.Node(id).Args[i]
	n := e.g.Node(a)
	if n.Kind == dfg.KindConst {
		return n.Val, true
	}
	return 0, false
}

func (e *emitter) catExpr(id dfg.NodeID, args []expr, w int) (string, error) {
	k, ok := e.constArg(id, 2)
	if !ok {
		return "", fmt.Errorf("firrtl: emit: cat node %d has non-constant low-width operand", id)
	}
	if int(k) == args[1].w && args[0].w+args[1].w <= 64 {
		return fit(expr{fmt.Sprintf("cat(%s, %s)", args[0].s, args[1].s), args[0].w + args[1].w}, w).s, nil
	}
	// General form: (hi << k) | lo, all within the result width.
	hi, err := e.staticShl(args[0], k, w)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("or(%s, %s)", hi, pad(args[1], w)), nil
}

func (e *emitter) bitsExpr(id dfg.NodeID, args []expr, w int) (string, error) {
	hi, okH := e.constArg(id, 1)
	lo, okL := e.constArg(id, 2)
	if !okH || !okL {
		return "", fmt.Errorf("firrtl: emit: bits node %d has non-constant range operands", id)
	}
	xw := uint64(args[0].w)
	if lo >= xw || hi < lo {
		return fmt.Sprintf("UInt<%d>(0)", w), nil
	}
	if hi >= xw {
		hi = xw - 1 // upper bits are zero anyway
	}
	return fit(expr{fmt.Sprintf("bits(%s, %d, %d)", args[0].s, hi, lo), int(hi-lo) + 1}, w).s, nil
}

// staticShl renders (x << k) fitted to width w under the frontend's capped
// width rules.
func (e *emitter) staticShl(x expr, k uint64, w int) (string, error) {
	if k >= uint64(w) || k >= 64 {
		return fmt.Sprintf("UInt<%d>(0)", w), nil
	}
	nat := x.w + int(k)
	if nat > 64 {
		nat = 64
	}
	return fit(expr{fmt.Sprintf("shl(%s, %d)", x.s, k), nat}, w).s, nil
}

func (e *emitter) shlExpr(id dfg.NodeID, args []expr, w int) (string, error) {
	if k, ok := e.constArg(id, 1); ok {
		return e.staticShl(args[0], k, w)
	}
	nat := args[0].w + 64
	if args[1].w < 7 {
		nat = args[0].w + (1 << args[1].w) - 1
	}
	if nat > 64 {
		nat = 64
	}
	return fit(expr{fmt.Sprintf("dshl(%s, %s)", args[0].s, args[1].s), nat}, w).s, nil
}

func (e *emitter) shrExpr(id dfg.NodeID, args []expr, w int) (string, error) {
	if k, ok := e.constArg(id, 1); ok {
		if k >= uint64(args[0].w) || k >= 64 {
			return fmt.Sprintf("UInt<%d>(0)", w), nil
		}
		return fit(expr{fmt.Sprintf("shr(%s, %d)", args[0].s, k), args[0].w - int(k)}, w).s, nil
	}
	return fit(expr{fmt.Sprintf("dshr(%s, %s)", args[0].s, args[1].s), args[0].w}, w).s, nil
}

func sanitize(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r == '.' || r == '$':
			b.WriteByte('$')
		case i == 0 && !isIdentStart(r):
			b.WriteByte('_')
		case !isIdentPart(r):
			b.WriteByte('_')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
