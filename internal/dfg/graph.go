// Package dfg implements the dataflow-graph intermediate representation that
// CPU- and compilation-based RTL simulators lower designs onto (Figure 1 of
// the paper): nodes are primitive operations, registers, constants, and
// primary inputs; edges are data flow. The package also provides the
// optimisation passes the RTeAAL compiler applies before tensor extraction
// (§6.1: constant propagation, copy propagation, CSE, mux-chain operator
// fusion, dead-code elimination), levelization with identity accounting
// (§4.2–4.3), and a direct interpreter used as the correctness oracle for
// every other engine in the repository.
package dfg

import (
	"cmp"
	"fmt"
	"slices"

	"rteaal/internal/wire"
)

// NodeID indexes a node within a Graph.
type NodeID int32

// Invalid is the null NodeID.
const Invalid NodeID = -1

// Kind distinguishes the structural classes of nodes.
type Kind uint8

const (
	// KindOp is a primitive operation (wire.Op) over argument nodes.
	KindOp Kind = iota
	// KindConst is a literal; Val holds the (masked) value.
	KindConst
	// KindInput is a primary input driven by the testbench each cycle.
	KindInput
	// KindReg is a register output (Q). Its next-state node is recorded in
	// Graph.Regs; the value only changes at the clock edge.
	KindReg
)

func (k Kind) String() string {
	switch k {
	case KindOp:
		return "op"
	case KindConst:
		return "const"
	case KindInput:
		return "input"
	case KindReg:
		return "reg"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one vertex of the dataflow graph.
type Node struct {
	Kind  Kind
	Op    wire.Op // meaningful when Kind == KindOp
	Width uint8   // result width in bits, 1..64
	Args  []NodeID
	Val   uint64 // constant value when Kind == KindConst
	Name  string // debug name for ports/registers; may be empty for ops
}

// Mask returns the value mask of the node's width.
func (n *Node) Mask() uint64 { return wire.Mask(int(n.Width)) }

// Port names an externally visible signal.
type Port struct {
	Name string
	Node NodeID
}

// Reg describes one register: the KindReg node carrying its current value,
// the node computing its next value, and its reset/initial value.
type Reg struct {
	Node NodeID
	Next NodeID // Invalid until connected
	Init uint64
}

// Graph is a single-clock synchronous circuit in dataflow form.
//
// Every operand precedes its user: Nodes[id].Args holds only ids below id,
// so ascending id order is a topological order of the combinational logic
// (a register's next-state may point anywhere; the clock edge breaks that
// loop). Validate checks it, and every pass keeps it.
//
// The zero value is an empty graph ready for use.
type Graph struct {
	Name    string
	Nodes   []Node
	Inputs  []Port
	Outputs []Port
	Regs    []Reg
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// Node returns a pointer to the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

func (g *Graph) add(n Node) NodeID {
	g.Nodes = append(g.Nodes, n)
	return NodeID(len(g.Nodes) - 1)
}

// AddConst adds a literal node; the value is masked to width.
func (g *Graph) AddConst(val uint64, width int) NodeID {
	return g.add(Node{Kind: KindConst, Val: val & wire.Mask(width), Width: uint8(width)})
}

// AddInput adds a primary input with the given name.
func (g *Graph) AddInput(name string, width int) NodeID {
	id := g.add(Node{Kind: KindInput, Width: uint8(width), Name: name})
	g.Inputs = append(g.Inputs, Port{Name: name, Node: id})
	return id
}

// AddReg adds a register node with the given initial value. The next-state
// node must be connected later with SetRegNext.
func (g *Graph) AddReg(name string, width int, init uint64) NodeID {
	id := g.add(Node{Kind: KindReg, Width: uint8(width), Name: name})
	g.Regs = append(g.Regs, Reg{Node: id, Next: Invalid, Init: init & wire.Mask(width)})
	return id
}

// SetRegNext connects the next-state input of the register whose Q node is q.
// AddReg appends each entry after every node before it, and Clone and the
// passes keep that order, so the entry is found by binary search.
func (g *Graph) SetRegNext(q, next NodeID) {
	i, ok := slices.BinarySearchFunc(g.Regs, q, func(r Reg, q NodeID) int { return cmp.Compare(r.Node, q) })
	if !ok {
		panic(fmt.Sprintf("dfg: SetRegNext: node %d is not a register", q))
	}
	g.Regs[i].Next = next
}

// AddOp adds a primitive-operation node.
func (g *Graph) AddOp(op wire.Op, width int, args ...NodeID) NodeID {
	return g.add(Node{Kind: KindOp, Op: op, Width: uint8(width), Args: args})
}

// AddOutput marks a node as a named primary output.
func (g *Graph) AddOutput(name string, id NodeID) {
	g.Outputs = append(g.Outputs, Port{Name: name, Node: id})
}

// Validate checks structural invariants: widths in range, every node id in
// range, every operand before its user (which also rules out combinational
// cycles), operation arities respected, each input port and register entry
// naming a distinct node of its kind, and register next-states connected.
func (g *Graph) Validate() error {
	inRange := func(id NodeID) bool { return id >= 0 && int(id) < len(g.Nodes) }
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Width == 0 || n.Width > 64 {
			return fmt.Errorf("dfg: node %d (%s): width %d out of range 1..64", id, n.Name, n.Width)
		}
		for _, a := range n.Args {
			if !inRange(a) {
				return fmt.Errorf("dfg: node %d: argument %d out of range", id, a)
			}
			if int(a) >= id {
				return fmt.Errorf("dfg: node %d: operand %d does not precede it", id, a)
			}
		}
		if n.Kind == KindOp {
			want := wire.Arity(n.Op)
			if want == wire.VarArity {
				if n.Op == wire.MuxChain && (len(n.Args) < 1 || len(n.Args)%2 == 0) {
					return fmt.Errorf("dfg: node %d: muxchain needs odd operand count >= 1, got %d", id, len(n.Args))
				}
			} else if len(n.Args) != want {
				return fmt.Errorf("dfg: node %d: op %v wants %d args, got %d", id, n.Op, want, len(n.Args))
			}
		} else if len(n.Args) != 0 {
			return fmt.Errorf("dfg: node %d: %v node must have no args", id, n.Kind)
		}
		if n.Kind == KindConst && n.Val > n.Mask() {
			return fmt.Errorf("dfg: node %d: constant %#x exceeds its width %d", id, n.Val, n.Width)
		}
	}
	// named marks the input and register nodes a port or an entry has named:
	// Levelize gives each one slot, so a second name would assign it twice
	// and a node no port or entry names would get none.
	named := make([]bool, len(g.Nodes))
	for _, p := range g.Inputs {
		switch {
		case !inRange(p.Node):
			return fmt.Errorf("dfg: input %q references invalid node", p.Name)
		case g.Nodes[p.Node].Kind != KindInput:
			return fmt.Errorf("dfg: input %q names node %d, which is not an input", p.Name, p.Node)
		case named[p.Node]:
			return fmt.Errorf("dfg: input %q names node %d, which another input already names", p.Name, p.Node)
		}
		named[p.Node] = true
	}
	for i, r := range g.Regs {
		if !inRange(r.Node) {
			return fmt.Errorf("dfg: register %d references invalid node %d", i, r.Node)
		}
		if r.Next == Invalid {
			return fmt.Errorf("dfg: register %d (%s) has no next-state", i, g.Nodes[r.Node].Name)
		}
		if !inRange(r.Next) {
			return fmt.Errorf("dfg: register %d (%s): next-state %d out of range", i, g.Nodes[r.Node].Name, r.Next)
		}
		if g.Nodes[r.Node].Kind != KindReg {
			return fmt.Errorf("dfg: register %d Node is not KindReg", i)
		}
		if named[r.Node] {
			return fmt.Errorf("dfg: register %d names node %d, which another register already names", i, r.Node)
		}
		named[r.Node] = true
		if r.Init > g.Nodes[r.Node].Mask() {
			return fmt.Errorf("dfg: register %s init %#x exceeds its width %d",
				g.Nodes[r.Node].Name, r.Init, g.Nodes[r.Node].Width)
		}
		// A narrower next-state zero-extends at commit (values carry no
		// sign); a wider one would silently truncate, so reject it.
		if g.Nodes[r.Next].Width > g.Nodes[r.Node].Width {
			return fmt.Errorf("dfg: register %s next width %d exceeds reg width %d",
				g.Nodes[r.Node].Name, g.Nodes[r.Next].Width, g.Nodes[r.Node].Width)
		}
	}
	for _, p := range g.Outputs {
		if !inRange(p.Node) {
			return fmt.Errorf("dfg: output %q references invalid node", p.Name)
		}
	}
	for id := range g.Nodes {
		switch n := &g.Nodes[id]; {
		case named[id]:
		case n.Kind == KindInput:
			return fmt.Errorf("dfg: input node %d (%s): no input port names it", id, n.Name)
		case n.Kind == KindReg:
			return fmt.Errorf("dfg: register node %d (%s): no register entry names it", id, n.Name)
		}
	}
	return nil
}

// Stats summarises a graph for reporting.
type Stats struct {
	Nodes      int
	Ops        int
	Consts     int
	Inputs     int
	Regs       int
	OpCounts   map[wire.Op]int
	MaxFanIn   int
	TotalEdges int
}

// ComputeStats tallies node and edge statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{OpCounts: make(map[wire.Op]int)}
	s.Nodes = len(g.Nodes)
	s.Inputs = len(g.Inputs)
	s.Regs = len(g.Regs)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Kind {
		case KindOp:
			s.Ops++
			s.OpCounts[n.Op]++
			s.TotalEdges += len(n.Args)
			if len(n.Args) > s.MaxFanIn {
				s.MaxFanIn = len(n.Args)
			}
		case KindConst:
			s.Consts++
		}
	}
	return s
}
