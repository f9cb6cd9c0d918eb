package dfg

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"rteaal/internal/wire"
)

// paperFigure1 builds the running example from Figure 1 of the paper:
//
//	reg1 <= reg1 + reg2
//	reg2 <= (reg1 + reg2) & (reg2 - reg3)
//	reg3 <= reg2 - reg3
//
// with 8-bit registers initialised to the given values.
func paperFigure1(r1, r2, r3 uint64) *Graph {
	g := &Graph{Name: "figure1"}
	reg1 := g.AddReg("reg1", 8, r1)
	reg2 := g.AddReg("reg2", 8, r2)
	reg3 := g.AddReg("reg3", 8, r3)
	sum := g.AddOp(wire.Add, 8, reg1, reg2)
	diff := g.AddOp(wire.Sub, 8, reg2, reg3)
	and := g.AddOp(wire.And, 8, sum, diff)
	g.SetRegNext(reg1, sum)
	g.SetRegNext(reg2, and)
	g.SetRegNext(reg3, diff)
	g.AddOutput("reg1", reg1)
	g.AddOutput("reg2", reg2)
	g.AddOutput("reg3", reg3)
	return g
}

func TestInterpPaperExample(t *testing.T) {
	g := paperFigure1(1, 2, 4)
	it, err := NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 1: sum=3, diff=2-4=254 (wrap), and=3&254=2
	it.Step()
	snap := it.RegSnapshot()
	if snap[0] != 3 || snap[1] != 2 || snap[2] != 254 {
		t.Fatalf("after 1 cycle: %v, want [3 2 254]", snap)
	}
	// Cycle 2: sum=5, diff=2-254=4, and=5&4=4
	it.Step()
	snap = it.RegSnapshot()
	if snap[0] != 5 || snap[1] != 4 || snap[2] != 4 {
		t.Fatalf("after 2 cycles: %v, want [5 4 4]", snap)
	}
	if it.Cycle() != 2 {
		t.Fatalf("cycle = %d", it.Cycle())
	}
}

func TestInterpResetAndPoke(t *testing.T) {
	g := &Graph{}
	in := g.AddInput("x", 8)
	r := g.AddReg("acc", 8, 0)
	sum := g.AddOp(wire.Add, 8, r, in)
	g.SetRegNext(r, sum)
	g.AddOutput("acc", r)
	it, err := NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.PokeInputName("x", 5); err != nil {
		t.Fatal(err)
	}
	it.Run(3)
	// Outputs sample at combinational settle (pre-commit), so after three
	// cycles the output saw the value held during the third cycle.
	if got := it.PeekOutput(0); got != 10 {
		t.Fatalf("output sample = %d, want 10", got)
	}
	if got := it.RegSnapshot()[0]; got != 15 {
		t.Fatalf("accumulator state = %d, want 15", got)
	}
	// An explicit Eval re-settles from committed state.
	it.Eval()
	if got := it.PeekOutput(0); got != 15 {
		t.Fatalf("post-settle sample = %d, want 15", got)
	}
	it.Reset()
	if got := it.PeekOutput(0); got != 0 {
		t.Fatalf("after reset = %d, want 0", got)
	}
	if err := it.PokeInputName("nope", 1); err == nil {
		t.Fatal("poke of unknown input should fail")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	t.Run("unconnected reg", func(t *testing.T) {
		g := &Graph{}
		g.AddReg("r", 8, 0)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for unconnected register")
		}
	})
	t.Run("bad width", func(t *testing.T) {
		g := &Graph{}
		g.AddConst(1, 65)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for width 65")
		}
	})
	t.Run("bad arity", func(t *testing.T) {
		g := &Graph{}
		a := g.AddConst(1, 8)
		g.AddOp(wire.Add, 8, a) // missing second operand
		if err := g.Validate(); err == nil {
			t.Fatal("want error for arity violation")
		}
	})
	t.Run("muxchain even args", func(t *testing.T) {
		g := &Graph{}
		a := g.AddConst(1, 8)
		g.AddOp(wire.MuxChain, 8, a, a)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for even muxchain arity")
		}
	})
	t.Run("combinational cycle", func(t *testing.T) {
		g := &Graph{}
		a := g.AddConst(1, 8)
		x := g.AddOp(wire.Add, 8, a, a)
		y := g.AddOp(wire.Add, 8, x, a)
		g.Nodes[x].Args[1] = y // close the loop
		if err := g.Validate(); err == nil {
			t.Fatal("want error for combinational cycle")
		}
	})
	// Acyclic, but an operand after its user: every order but id order
	// would evaluate it, so the invariant alone rejects it.
	t.Run("operand after its user", func(t *testing.T) {
		g := &Graph{}
		a := g.AddConst(1, 8)
		x := g.AddOp(wire.Not, 8, a)
		y := g.AddOp(wire.Not, 8, a)
		g.Nodes[x].Args[0] = y
		g.AddOutput("x", x)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "node 1: operand 2 does not precede it") {
			t.Fatalf("Validate = %v, want node 1's operand 2 named", err)
		}
	})
	t.Run("reg next wider than reg", func(t *testing.T) {
		g := &Graph{}
		r := g.AddReg("r", 4, 0)
		c := g.AddConst(1, 8)
		g.SetRegNext(r, c)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for wider next-state")
		}
	})
	// AddConst and AddReg mask their values; a graph built field by field
	// (a decoded corpus repro) is held to the same invariant here.
	t.Run("const above its width", func(t *testing.T) {
		g := &Graph{Nodes: []Node{{Kind: KindConst, Val: 2, Width: 1}}}
		if err := g.Validate(); err == nil {
			t.Fatal("want error for a constant wider than its node")
		}
	})
	t.Run("reg init above its width", func(t *testing.T) {
		g := &Graph{}
		r := g.AddReg("r", 1, 0)
		g.SetRegNext(r, r)
		g.Regs[0].Init = 2
		if err := g.Validate(); err == nil {
			t.Fatal("want error for a register init wider than its node")
		}
	})
	// A graph built field by field can name any node from a port or a
	// register entry; each of these used to panic Validate or Levelize.
	t.Run("reg node out of range", func(t *testing.T) {
		g := &Graph{Nodes: []Node{{Kind: KindConst, Width: 1}}, Regs: []Reg{{Node: 7, Next: 0}}}
		if err := g.Validate(); err == nil {
			t.Fatal("want error for a register node out of range")
		}
	})
	t.Run("reg next out of range", func(t *testing.T) {
		g := &Graph{}
		g.AddReg("r", 8, 0)
		g.Regs[0].Next = 9
		if err := g.Validate(); err == nil {
			t.Fatal("want error for a register next-state out of range")
		}
	})
	t.Run("input port out of range", func(t *testing.T) {
		g := &Graph{Nodes: []Node{{Kind: KindConst, Width: 1}}, Inputs: []Port{{Name: "x", Node: 9}}}
		if err := g.Validate(); err == nil {
			t.Fatal("want error for an input port out of range")
		}
	})
	t.Run("input port on a non-input", func(t *testing.T) {
		g := &Graph{}
		c := g.AddConst(1, 8)
		g.Inputs = append(g.Inputs, Port{Name: "x", Node: c})
		if err := g.Validate(); err == nil {
			t.Fatal("want error for an input port naming a constant")
		}
	})
	t.Run("input named twice", func(t *testing.T) {
		g := &Graph{}
		x := g.AddInput("x", 8)
		g.Inputs = append(g.Inputs, Port{Name: "y", Node: x})
		if err := g.Validate(); err == nil {
			t.Fatal("want error for two input ports naming one node")
		}
	})
	t.Run("reg named twice", func(t *testing.T) {
		g := &Graph{}
		r := g.AddReg("r", 8, 0)
		g.SetRegNext(r, r)
		g.Regs = append(g.Regs, g.Regs[0])
		if err := g.Validate(); err == nil {
			t.Fatal("want error for two register entries naming one node")
		}
	})
	// Levelize gives a slot only to the nodes ports and entries name; an
	// input or register node nothing names used to fail it.
	t.Run("input node no port names", func(t *testing.T) {
		g := &Graph{Nodes: []Node{{Kind: KindInput, Width: 4}}, Outputs: []Port{{Name: "y", Node: 0}}}
		if err := g.Validate(); err == nil {
			t.Fatal("want error for an input node no input port names")
		}
	})
	t.Run("reg node no entry names", func(t *testing.T) {
		g := &Graph{Nodes: []Node{{Kind: KindReg, Width: 4}}, Outputs: []Port{{Name: "y", Node: 0}}}
		if err := g.Validate(); err == nil {
			t.Fatal("want error for a register node no register entry names")
		}
	})
	t.Run("reg next narrower is fine", func(t *testing.T) {
		g := &Graph{}
		r := g.AddReg("r", 8, 0)
		c := g.AddConst(1, 4)
		g.SetRegNext(r, c)
		if err := g.Validate(); err != nil {
			t.Fatalf("narrower next-state should validate: %v", err)
		}
	})
}

// TestTopoOrderProperty: a graph's id order is its topological order.
// RandomGraph lists every operand before its user, and every pass keeps
// that, so the optimised graph validates too.
func TestTopoOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := RandomGraph(rng, DefaultRandomParams())
		opt, err := Optimize(g, DefaultOptOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, h := range []*Graph{g, opt} {
			for id := range h.Nodes {
				for _, a := range h.Nodes[id].Args {
					if int(a) >= id {
						t.Fatalf("trial %d: operand %d of node %d not before it", trial, a, id)
					}
				}
			}
		}
	}
}

func TestRandomGraphValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := RandomGraph(rng, DefaultRandomParams())
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSetRegNextIsLogarithmic: SetRegNext finds a register's entry by
// binary search, so connecting 200,000 registers in reverse order, each
// between two constants, takes linear-log time. A linear scan per call
// took about 24 s on a 2-vCPU host, and made generating full r1 quadratic
// in registers. A node that is no register still panics.
func TestSetRegNextIsLogarithmic(t *testing.T) {
	const n = 200_000
	g := &Graph{}
	c := g.AddConst(1, 8)
	regs := make([]NodeID, n)
	for i := range regs {
		regs[i] = g.AddReg("r"+strconv.Itoa(i), 8, 0)
		g.AddConst(uint64(i), 8)
	}
	start := time.Now()
	for i := n - 1; i >= 0; i-- {
		g.SetRegNext(regs[i], regs[(i+1)%n])
	}
	took := time.Since(start)
	t.Logf("%d registers connected in reverse order in %v", n, took)
	if took > 500*time.Millisecond {
		t.Errorf("%d registers took %v to connect, want under 0.5 s", n, took)
	}
	for i, r := range g.Regs {
		if r.Node != regs[i] || r.Next != regs[(i+1)%n] {
			t.Fatalf("register %d: %+v, want node %d next %d", i, r, regs[i], regs[(i+1)%n])
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("SetRegNext of a constant did not panic")
		}
	}()
	g.SetRegNext(c, c)
}

func TestCloneIsIndependent(t *testing.T) {
	g := paperFigure1(1, 2, 4)
	c := g.Clone()
	c.Nodes[3].Op = wire.Xor
	c.Nodes[3].Args[0] = 2
	if g.Nodes[3].Op != wire.Add || g.Nodes[3].Args[0] != 0 {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestComputeStats(t *testing.T) {
	g := paperFigure1(1, 2, 4)
	s := g.ComputeStats()
	if s.Ops != 3 || s.Regs != 3 || s.OpCounts[wire.Add] != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalEdges != 6 {
		t.Fatalf("edges = %d, want 6", s.TotalEdges)
	}
}
