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

// Clone deep-copies the graph: one copy of the node array, and one slab that
// every node's operands are cut from.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		Name:    g.Name,
		Nodes:   append([]Node(nil), g.Nodes...),
		Inputs:  append([]Port(nil), g.Inputs...),
		Outputs: append([]Port(nil), g.Outputs...),
		Regs:    append([]Reg(nil), g.Regs...),
	}
	total := 0
	for i := range g.Nodes {
		total += len(g.Nodes[i].Args)
	}
	slab := make([]NodeID, total)
	for i := range out.Nodes {
		n := &out.Nodes[i]
		k := copy(slab, n.Args)
		n.Args, slab = slab[:k:k], slab[k:]
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
}

// constFold evaluates operations whose arguments are all constants and turns
// them into KindConst nodes. Muxes with a constant selector forward the
// chosen branch even when the branches are not constant. Operands precede
// their users, so one walk in id order folds whole constant chains.
func (g *Graph) constFold() {
	repl := newRepl(len(g.Nodes))
	changed := false
	for id := range g.Nodes {
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
		var buf [3]uint64
		args := buf[:0]
		for _, a := range n.Args {
			args = append(args, g.Nodes[resolve(repl, a)].Val)
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

// opKey is what makes two operations structurally identical: op, width and
// resolved operands. Operands past the second of a longer list are keyed by
// the index of that tail in cse's tails table.
type opKey struct {
	args  [3]NodeID
	op    wire.Op
	width uint8
	n     uint8 // operand count, saturated: a list longer than 3 is 4
}

// constKey is what makes two constants identical.
type constKey struct {
	val   uint64
	width uint8
}

// cse merges structurally identical nodes (same op, width, arguments). Only
// op and const nodes participate; inputs and registers are identities.
func (g *Graph) cse() {
	repl := newRepl(len(g.Nodes))
	changed := false

	// Constants first so op folding sees merged literals, then ops in id
	// order, a topological order, so argument replacements are already
	// final.
	consts := make(map[constKey]NodeID)
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Kind != KindConst {
			continue
		}
		k := constKey{n.Val, n.Width}
		if prev, ok := consts[k]; ok {
			repl[id] = prev
			changed = true
		} else {
			consts[k] = NodeID(id)
		}
	}
	ops := make(map[opKey]NodeID, len(g.Nodes))
	var tails map[string]NodeID
	var tail []byte
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Kind != KindOp {
			continue
		}
		k := opKey{op: n.Op, width: n.Width, n: uint8(min(len(n.Args), 4))}
		for i, a := range n.Args[:min(len(n.Args), 3)] {
			k.args[i] = resolve(repl, a)
		}
		if len(n.Args) > 3 {
			tail = tail[:0]
			for _, a := range n.Args[2:] {
				tail = binary.LittleEndian.AppendUint32(tail, uint32(resolve(repl, a)))
			}
			if tails == nil {
				tails = make(map[string]NodeID)
			}
			t, ok := tails[string(tail)]
			if !ok {
				t = NodeID(len(tails))
				tails[string(tail)] = t
			}
			k.args[2] = t
		}
		if prev, ok := ops[k]; ok {
			repl[id] = prev
			changed = true
		} else {
			ops[k] = NodeID(id)
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
	// flat holds every fused chain's operands, each chain cut from it.
	var flat []NodeID
	// Process nodes from the head of each chain: a mux no chain absorbs.
	// Walking muxes in reverse id order visits every user before its
	// operands, so a mux not absorbed by the time it is reached is a head.
	for id := len(g.Nodes) - 1; id >= 0; id-- {
		n := &g.Nodes[id]
		if n.Kind != KindOp || n.Op != wire.Mux || absorbed[id] {
			continue
		}
		start := len(flat)
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
		if len(flat)-start > 3 { // at least two muxes fused
			n.Op = wire.MuxChain
			n.Args = flat[start:len(flat):len(flat)]
		} else {
			flat = flat[:start]
		}
	}
}

// compact removes unreachable nodes and renumbers the survivors, moving
// them down in place. Inputs are always kept (the testbench drives them
// positionally), and so is every register with its next-state cone.
func (g *Graph) compact() {
	live := make([]bool, len(g.Nodes))
	for _, p := range g.Outputs {
		live[p.Node] = true
	}
	for _, r := range g.Regs {
		live[r.Node] = true
		live[r.Next] = true
	}
	for _, p := range g.Inputs {
		live[p.Node] = true
	}
	// One descending sweep marks every cone: a node's users all come after
	// it, so it is marked before the sweep reaches it.
	for id := len(g.Nodes) - 1; id >= 0; id-- {
		if live[id] {
			for _, a := range g.Nodes[id].Args {
				live[a] = true
			}
		}
	}

	remap := make([]NodeID, len(g.Nodes))
	n := 0
	for id := range g.Nodes {
		if live[id] {
			remap[id] = NodeID(n)
			g.Nodes[n] = g.Nodes[id]
			n++
		} else {
			remap[id] = Invalid
		}
	}
	clear(g.Nodes[n:])
	g.Nodes = g.Nodes[:n]
	for i := range g.Nodes {
		for j, a := range g.Nodes[i].Args {
			g.Nodes[i].Args[j] = remap[a]
		}
	}
	for i := range g.Inputs {
		g.Inputs[i].Node = remap[g.Inputs[i].Node]
	}
	for i := range g.Outputs {
		g.Outputs[i].Node = remap[g.Outputs[i].Node]
	}
	for i, r := range g.Regs {
		g.Regs[i] = Reg{Node: remap[r.Node], Next: remap[r.Next], Init: r.Init}
	}
}
