package dfg

import (
	"encoding/binary"

	"rteaal/internal/wire"
)

// OptOptions selects which dataflow-graph optimisations run. In the paper's
// taxonomy (Box 1): mux-chain fusion is a cascade-level optimisation
// (operator fusion), copy propagation is data-level, and the rest are
// classical compiler passes applied to optimise the OIM (§6.1).
type OptOptions struct {
	ConstFold    bool
	CopyProp     bool
	CSE          bool
	MuxChainFuse bool
	// DCE removes nodes no output or register reaches. Every register is
	// kept, reachable or not: architectural state is what waveforms show.
	DCE bool
}

// DefaultOptOptions enables the passes the proof-of-concept compiler applies.
func DefaultOptOptions() OptOptions {
	return OptOptions{ConstFold: true, CopyProp: true, CSE: true, MuxChainFuse: true, DCE: true}
}

// Optimize runs the selected passes over a copy of g and returns the
// optimised graph. The input graph is not modified.
func Optimize(g *Graph, o OptOptions) (*Graph, error) {
	out := g.Clone()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	if o.ConstFold {
		out.constFold()
	}
	if o.CopyProp {
		out.copyProp()
	}
	if o.CSE {
		out.cse()
	}
	if o.MuxChainFuse {
		out.muxChainFuse()
	}
	if o.DCE {
		out.compact()
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		Name:    g.Name,
		Nodes:   make([]Node, len(g.Nodes)),
		Inputs:  append([]Port(nil), g.Inputs...),
		Outputs: append([]Port(nil), g.Outputs...),
		Regs:    append([]Reg(nil), g.Regs...),
	}
	copy(out.Nodes, g.Nodes)
	for i := range out.Nodes {
		out.Nodes[i].Args = append([]NodeID(nil), g.Nodes[i].Args...)
	}
	return out
}

// resolve follows a replacement chain with path compression.
func resolve(repl []NodeID, id NodeID) NodeID {
	for repl[id] != id {
		repl[id] = repl[repl[id]]
		id = repl[id]
	}
	return id
}

func newRepl(n int) []NodeID {
	repl := make([]NodeID, n)
	for i := range repl {
		repl[i] = NodeID(i)
	}
	return repl
}

// applyRepl rewrites every reference in the graph through repl.
func (g *Graph) applyRepl(repl []NodeID) {
	for i := range g.Nodes {
		for j, a := range g.Nodes[i].Args {
			g.Nodes[i].Args[j] = resolve(repl, a)
		}
	}
	for i := range g.Outputs {
		g.Outputs[i].Node = resolve(repl, g.Outputs[i].Node)
	}
	for i := range g.Regs {
		g.Regs[i].Next = resolve(repl, g.Regs[i].Next)
		// Reg.Node is the register itself; never replaced.
	}
	g.topo = nil
}

// constFold evaluates operations whose arguments are all constants and turns
// them into KindConst nodes. Muxes with a constant selector forward the
// chosen branch even when the branches are not constant.
func (g *Graph) constFold() {
	topo, err := g.TopoOrder()
	if err != nil {
		return
	}
	repl := newRepl(len(g.Nodes))
	changed := false
	for _, id := range topo {
		n := &g.Nodes[id]
		if n.Kind != KindOp {
			continue
		}
		// Mux/MuxChain with constant selectors.
		if n.Op == wire.Mux {
			sel := resolve(repl, n.Args[0])
			if g.Nodes[sel].Kind == KindConst {
				branch := n.Args[2]
				if g.Nodes[sel].Val != 0 {
					branch = n.Args[1]
				}
				branch = resolve(repl, branch)
				// Forwarding must not skip the mux's truncation: only
				// fold when the branch already fits the mux width.
				if g.Nodes[branch].Width <= n.Width {
					repl[id] = branch
					changed = true
					continue
				}
			}
		}
		allConst := true
		for _, a := range n.Args {
			if g.Nodes[resolve(repl, a)].Kind != KindConst {
				allConst = false
				break
			}
		}
		if !allConst {
			continue
		}
		args := make([]uint64, len(n.Args))
		for i, a := range n.Args {
			args[i] = g.Nodes[resolve(repl, a)].Val
		}
		val := wire.Eval(n.Op, args, n.Mask())
		g.Nodes[id] = Node{Kind: KindConst, Val: val, Width: n.Width, Name: n.Name}
		changed = true
	}
	if changed {
		g.applyRepl(repl)
	}
}

// copyProp forwards Ident nodes to their operand (data-level copy
// propagation; §B.1). Width-changing Idents (our lowering of FIRRTL pad)
// are forwarded only when the operand already fits, which it always does
// for widening: values carry no sign, so a widening copy is a no-op.
func (g *Graph) copyProp() {
	repl := newRepl(len(g.Nodes))
	changed := false
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Kind != KindOp || n.Op != wire.Ident {
			continue
		}
		src := n.Args[0]
		if g.Nodes[src].Width <= n.Width {
			repl[id] = src
			changed = true
		}
		// A narrowing Ident would need a mask, so it stays. The FIRRTL
		// frontend never emits one (it lowers truncation to Bits).
	}
	if changed {
		g.applyRepl(repl)
	}
}

// cse merges structurally identical nodes (same op, width, arguments). Only
// op and const nodes participate; inputs and registers are identities.
func (g *Graph) cse() {
	topo, err := g.TopoOrder()
	if err != nil {
		return
	}
	repl := newRepl(len(g.Nodes))
	seen := make(map[string]NodeID, len(g.Nodes))
	var key []byte
	changed := false

	hash := func(n *Node, repl []NodeID) string {
		key = key[:0]
		key = append(key, byte(n.Kind), byte(n.Op), n.Width)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], n.Val)
		key = append(key, buf[:]...)
		for _, a := range n.Args {
			binary.LittleEndian.PutUint32(buf[:4], uint32(resolve(repl, a)))
			key = append(key, buf[:4]...)
		}
		return string(key)
	}

	// Constants first so op folding sees merged literals, then ops in
	// topological order so argument replacements are already final.
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Kind != KindConst {
			continue
		}
		k := hash(n, repl)
		if prev, ok := seen[k]; ok {
			repl[id] = prev
			changed = true
		} else {
			seen[k] = NodeID(id)
		}
	}
	for _, id := range topo {
		n := &g.Nodes[id]
		k := hash(n, repl)
		if prev, ok := seen[k]; ok {
			repl[id] = prev
			changed = true
		} else {
			seen[k] = id
		}
	}
	if changed {
		g.applyRepl(repl)
	}
}

// useCounts tallies how many times each node is referenced (as an argument,
// output, or register next-state).
func (g *Graph) useCounts() []int32 {
	uses := make([]int32, len(g.Nodes))
	for i := range g.Nodes {
		for _, a := range g.Nodes[i].Args {
			uses[a]++
		}
	}
	for _, p := range g.Outputs {
		uses[p.Node]++
	}
	for _, r := range g.Regs {
		uses[r.Next]++
	}
	return uses
}

// muxChainFuse rewrites chains of 2-way muxes nested through their
// else-branches into single MuxChain operations (operator fusion, §6.1 and
// Box 1). Only single-use interior muxes of matching width are absorbed, so
// fusion never duplicates work.
func (g *Graph) muxChainFuse() {
	uses := g.useCounts()
	absorbed := make([]bool, len(g.Nodes))
	// Process nodes from the head of each chain: a head is a Mux that is
	// either multiply used or consumed by a non-mux. Walking all muxes in
	// reverse id order and skipping already-absorbed ones approximates
	// that cheaply; correctness does not depend on ordering because
	// absorption requires single-use interiors.
	for id := len(g.Nodes) - 1; id >= 0; id-- {
		n := &g.Nodes[id]
		if n.Kind != KindOp || n.Op != wire.Mux || absorbed[id] {
			continue
		}
		var flat []NodeID
		cur := NodeID(id)
		for {
			cn := &g.Nodes[cur]
			flat = append(flat, cn.Args[0], cn.Args[1])
			e := cn.Args[2]
			en := &g.Nodes[e]
			if en.Kind == KindOp && en.Op == wire.Mux && uses[e] == 1 &&
				en.Width == n.Width && !absorbed[e] {
				absorbed[e] = true
				cur = e
				continue
			}
			flat = append(flat, e)
			break
		}
		if len(flat) > 3 { // at least two muxes fused
			n.Op = wire.MuxChain
			n.Args = flat
		}
	}
	g.topo = nil
}

// compact removes unreachable nodes and renumbers the survivors. Inputs are
// always kept (the testbench drives them positionally), and so is every
// register with its next-state cone.
func (g *Graph) compact() {
	live := make([]bool, len(g.Nodes))
	var mark func(NodeID)
	var stack []NodeID
	mark = func(id NodeID) {
		stack = append(stack[:0], id)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if live[id] {
				continue
			}
			live[id] = true
			for _, a := range g.Nodes[id].Args {
				if !live[a] {
					stack = append(stack, a)
				}
			}
		}
	}
	for _, p := range g.Outputs {
		mark(p.Node)
	}
	for _, r := range g.Regs {
		live[r.Node] = true
		mark(r.Next)
	}
	for _, p := range g.Inputs {
		live[p.Node] = true
	}

	remap := make([]NodeID, len(g.Nodes))
	newNodes := make([]Node, 0, len(g.Nodes))
	for id := range g.Nodes {
		if live[id] {
			remap[id] = NodeID(len(newNodes))
			newNodes = append(newNodes, g.Nodes[id])
		} else {
			remap[id] = Invalid
		}
	}
	for i := range newNodes {
		for j, a := range newNodes[i].Args {
			newNodes[i].Args[j] = remap[a]
		}
	}
	g.Nodes = newNodes
	for i := range g.Inputs {
		g.Inputs[i].Node = remap[g.Inputs[i].Node]
	}
	for i := range g.Outputs {
		g.Outputs[i].Node = remap[g.Outputs[i].Node]
	}
	for i, r := range g.Regs {
		g.Regs[i] = Reg{Node: remap[r.Node], Next: remap[r.Next], Init: r.Init}
	}
	g.topo = nil
}
