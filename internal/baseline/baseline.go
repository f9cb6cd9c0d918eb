// Package baseline implements the two comparison simulators of the paper's
// evaluation (§3, §7), built from the same dataflow graphs as RTeAAL Sim:
//
//   - Verilator-style: the design is split into module-sized evaluation
//     functions dispatched through a function table; each function walks its
//     operations with per-operation branching (the code shape responsible
//     for Verilator's branch-misprediction and I-cache profile).
//
//   - ESSENT-style: the design is completely unrolled into straight-line
//     code — one tape entry per operation in topological order with operand
//     locations embedded as immediates — eliminating branches and loops at
//     the cost of code volume proportional to the design (§3).
//
// Both are cycle-accurate and are property-tested against the dataflow-graph
// oracle.
package baseline

import (
	"fmt"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// Style selects the baseline construction.
type Style uint8

const (
	// Verilator is the branching, module-structured style.
	Verilator Style = iota
	// Essent is the fully unrolled straight-line style.
	Essent
)

func (s Style) String() string {
	if s == Verilator {
		return "verilator"
	}
	return "essent"
}

// Simulator is a cycle-accurate baseline engine.
type Simulator struct {
	style Style
	g     *dfg.Graph
	vals  []uint64
	next  []uint64
	outs  []uint64

	// Verilator-style: clusters of ops evaluated per "module function".
	clusters [][]clusterOp
	// ESSENT-style: one straight-line tape.
	tape []clusterOp
}

// clusterOp is one lowered operation with pre-resolved operand locations.
type clusterOp struct {
	op   wire.Op
	out  int32
	args []int32
	mask uint64
}

// ModuleClusterSize approximates the operation count of one generated
// Verilator module function.
const ModuleClusterSize = 64

// New builds a baseline simulator for a validated graph.
func New(g *dfg.Graph, style Style) (*Simulator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		style: style,
		g:     g,
		vals:  make([]uint64, len(g.Nodes)),
		next:  make([]uint64, len(g.Regs)),
		outs:  make([]uint64, len(g.Outputs)),
	}
	// Operands precede their users, so the ops in id order are the tape.
	var tape []clusterOp
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != dfg.KindOp {
			continue
		}
		args := make([]int32, len(n.Args))
		for j, a := range n.Args {
			args[j] = int32(a)
		}
		tape = append(tape, clusterOp{op: n.Op, out: int32(i), args: args, mask: n.Mask()})
	}
	if style == Essent {
		s.tape = tape
	} else {
		for start := 0; start < len(tape); start += ModuleClusterSize {
			end := min(start+ModuleClusterSize, len(tape))
			s.clusters = append(s.clusters, tape[start:end:end])
		}
	}
	s.Reset()
	return s, nil
}

// Name identifies the baseline style.
func (s *Simulator) Name() string { return s.style.String() }

// Graph returns the underlying design.
func (s *Simulator) Graph() *dfg.Graph { return s.g }

// Reset restores initial state.
func (s *Simulator) Reset() {
	for i := range s.vals {
		s.vals[i] = 0
	}
	for id := range s.g.Nodes {
		if s.g.Nodes[id].Kind == dfg.KindConst {
			s.vals[id] = s.g.Nodes[id].Val
		}
	}
	for _, r := range s.g.Regs {
		s.vals[r.Node] = r.Init
	}
	for i := range s.outs {
		s.outs[i] = 0
	}
}

// PokeInput drives a primary input.
func (s *Simulator) PokeInput(idx int, v uint64) {
	p := s.g.Inputs[idx]
	s.vals[p.Node] = v & s.g.Node(p.Node).Mask()
}

// PeekOutput reads an output as sampled at the last settle.
func (s *Simulator) PeekOutput(idx int) uint64 { return s.outs[idx] }

// evalOp executes one lowered operation with Verilator-style branching for
// muxes (a real conditional, not a select).
func (s *Simulator) evalOp(c *clusterOp) {
	vals := s.vals
	switch c.op {
	case wire.Mux:
		if vals[c.args[0]] != 0 {
			vals[c.out] = vals[c.args[1]] & c.mask
		} else {
			vals[c.out] = vals[c.args[2]] & c.mask
		}
	case wire.MuxChain:
		n := len(c.args)
		out := vals[c.args[n-1]]
		for i := 0; i+1 < n; i += 2 {
			if vals[c.args[i]] != 0 {
				out = vals[c.args[i+1]]
				break
			}
		}
		vals[c.out] = out & c.mask
	default:
		var buf [3]uint64
		args := buf[:len(c.args)]
		for i, a := range c.args {
			args[i] = vals[a]
		}
		vals[c.out] = wire.Eval(c.op, args, c.mask)
	}
}

// Settle evaluates the combinational logic and samples outputs.
func (s *Simulator) Settle() {
	if s.style == Essent {
		for i := range s.tape {
			s.evalOp(&s.tape[i])
		}
	} else {
		for _, cluster := range s.clusters {
			for i := range cluster {
				s.evalOp(&cluster[i])
			}
		}
	}
	for i, p := range s.g.Outputs {
		s.outs[i] = s.vals[p.Node]
	}
}

// Step runs one full cycle.
func (s *Simulator) Step() {
	s.Settle()
	for i, r := range s.g.Regs {
		s.next[i] = s.vals[r.Next] & s.g.Node(r.Node).Mask()
	}
	for i, r := range s.g.Regs {
		s.vals[r.Node] = s.next[i]
	}
}

// RegSnapshot copies committed register values.
func (s *Simulator) RegSnapshot() []uint64 {
	out := make([]uint64, len(s.g.Regs))
	for i, r := range s.g.Regs {
		out[i] = s.vals[r.Node]
	}
	return out
}

var _ fmt.Stringer = Style(0)
