package dfg

import (
	"fmt"

	"rteaal/internal/wire"
)

// Interp is the reference interpreter: it evaluates the dataflow graph
// directly, node by node in id order (a topological order, since every
// operand precedes its user), with no tensor machinery.
// Every other engine in the repository (the seven RTeAAL kernels, both
// baseline simulators, the batch engine and the RepCut parallel engine) is
// tested for bit-identical behaviour against it.
type Interp struct {
	g     *Graph
	vals  []uint64 // current value of every node
	next  []uint64 // register next values staged before commit
	outs  []uint64 // primary outputs sampled at combinational settle
	cycle uint64
}

// NewInterp builds an interpreter. The graph must Validate.
func NewInterp(g *Graph) (*Interp, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	it := &Interp{
		g:    g,
		vals: make([]uint64, len(g.Nodes)),
		next: make([]uint64, len(g.Regs)),
		outs: make([]uint64, len(g.Outputs)),
	}
	it.Reset()
	return it, nil
}

// Reset restores registers to their initial values and clears inputs.
func (it *Interp) Reset() {
	for i := range it.vals {
		it.vals[i] = 0
	}
	for i := range it.g.Nodes {
		if it.g.Nodes[i].Kind == KindConst {
			it.vals[i] = it.g.Nodes[i].Val
		}
	}
	for _, r := range it.g.Regs {
		it.vals[r.Node] = r.Init
	}
	for i := range it.outs {
		it.outs[i] = 0
	}
	it.cycle = 0
}

// Cycle returns the number of completed Step calls since the last Reset.
func (it *Interp) Cycle() uint64 { return it.cycle }

// PokeInput sets the primary input with the given index (into Graph.Inputs).
func (it *Interp) PokeInput(idx int, v uint64) {
	p := it.g.Inputs[idx]
	it.vals[p.Node] = v & it.g.Nodes[p.Node].Mask()
}

// PokeInputName sets a primary input by name.
func (it *Interp) PokeInputName(name string, v uint64) error {
	for i, p := range it.g.Inputs {
		if p.Name == name {
			it.PokeInput(i, v)
			return nil
		}
	}
	return fmt.Errorf("dfg: no input named %q", name)
}

// Peek returns the current value of any node.
func (it *Interp) Peek(id NodeID) uint64 { return it.vals[id] }

// PeekOutput returns the value of the idx-th primary output as sampled at
// the most recent combinational settle (after Eval, before the register
// commit of Step). Sampling before the commit is the convention shared by
// every engine in this repository: it makes output values independent of
// whether an output happens to be wired to a register directly or through
// folded combinational logic.
func (it *Interp) PeekOutput(idx int) uint64 { return it.outs[idx] }

// Eval propagates the current inputs and register values through the
// combinational logic without advancing the clock, then samples the primary
// outputs.
func (it *Interp) Eval() {
	var argbuf [8]uint64
	for id := range it.g.Nodes {
		n := &it.g.Nodes[id]
		if n.Kind != KindOp {
			continue
		}
		var args []uint64
		if len(n.Args) <= len(argbuf) {
			args = argbuf[:len(n.Args)]
		} else {
			args = make([]uint64, len(n.Args))
		}
		for i, a := range n.Args {
			args[i] = it.vals[a]
		}
		it.vals[id] = wire.Eval(n.Op, args, n.Mask())
	}
	for i, p := range it.g.Outputs {
		it.outs[i] = it.vals[p.Node]
	}
}

// Step runs one full clock cycle: combinational evaluation followed by a
// simultaneous register commit.
func (it *Interp) Step() {
	it.Eval()
	for i, r := range it.g.Regs {
		it.next[i] = it.vals[r.Next]
	}
	for i, r := range it.g.Regs {
		it.vals[r.Node] = it.next[i]
	}
	it.cycle++
}

// Run executes n cycles with inputs held at their current values.
func (it *Interp) Run(n int) {
	for i := 0; i < n; i++ {
		it.Step()
	}
}

// RegSnapshot copies the current register values, in Graph.Regs order. This
// is the canonical trace compared across engines.
func (it *Interp) RegSnapshot() []uint64 {
	out := make([]uint64, len(it.g.Regs))
	for i, r := range it.g.Regs {
		out[i] = it.vals[r.Node]
	}
	return out
}

// OutputSnapshot copies the primary-output values sampled at the most recent
// combinational settle.
func (it *Interp) OutputSnapshot() []uint64 {
	return append([]uint64(nil), it.outs...)
}
