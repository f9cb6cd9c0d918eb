package dfg

import (
	"math/rand"
	"testing"

	"rteaal/internal/wire"
)

// runTrace drives a graph for n cycles with per-cycle random inputs drawn
// from rng and returns the concatenated output+register trace.
func runTrace(t *testing.T, g *Graph, rng *rand.Rand, n int) []uint64 {
	t.Helper()
	it, err := NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	var trace []uint64
	for c := 0; c < n; c++ {
		for i := range g.Inputs {
			it.PokeInput(i, rng.Uint64())
		}
		it.Step()
		trace = append(trace, it.OutputSnapshot()...)
	}
	return trace
}

func equalTrace(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOptimizePreservesSemantics is the central pass-correctness property:
// on random circuits with random stimulus, the optimised graph must produce
// the same primary-output trace as the original.
func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		g := RandomGraph(rng, DefaultRandomParams())
		opt, err := Optimize(g, DefaultOptOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seed := rng.Int63()
		want := runTrace(t, g, rand.New(rand.NewSource(seed)), 24)
		got := runTrace(t, opt, rand.New(rand.NewSource(seed)), 24)
		if !equalTrace(want, got) {
			t.Fatalf("trial %d: optimised trace diverges\nwant %v\ngot  %v", trial, want, got)
		}
	}
}

func TestOptimizeEachPassAlone(t *testing.T) {
	passes := map[string]OptOptions{
		"constfold": {ConstFold: true},
		"copyprop":  {CopyProp: true},
		"cse":       {CSE: true},
		"muxchain":  {MuxChainFuse: true},
		"dce":       {DCE: true},
	}
	rng := rand.New(rand.NewSource(7))
	for name, o := range passes {
		o := o
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 15; trial++ {
				g := RandomGraph(rng, DefaultRandomParams())
				opt, err := Optimize(g, o)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				seed := rng.Int63()
				want := runTrace(t, g, rand.New(rand.NewSource(seed)), 16)
				got := runTrace(t, opt, rand.New(rand.NewSource(seed)), 16)
				if !equalTrace(want, got) {
					t.Fatalf("trial %d: trace diverges", trial)
				}
			}
		})
	}
}

func TestConstFoldFoldsChains(t *testing.T) {
	g := &Graph{}
	a := g.AddConst(3, 8)
	b := g.AddConst(4, 8)
	s := g.AddOp(wire.Add, 8, a, b)
	d := g.AddOp(wire.Mul, 8, s, s)
	g.AddOutput("o", d)
	opt, err := Optimize(g, OptOptions{ConstFold: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	st := opt.ComputeStats()
	if st.Ops != 0 {
		t.Fatalf("ops remaining after const fold: %d", st.Ops)
	}
	out := opt.Nodes[opt.Outputs[0].Node]
	if out.Kind != KindConst || out.Val != 49 {
		t.Fatalf("output = %+v, want const 49", out)
	}
}

func TestConstFoldMuxSelector(t *testing.T) {
	g := &Graph{}
	in1 := g.AddInput("a", 8)
	in2 := g.AddInput("b", 8)
	sel := g.AddConst(1, 1)
	m := g.AddOp(wire.Mux, 8, sel, in1, in2)
	g.AddOutput("o", m)
	opt, err := Optimize(g, OptOptions{ConstFold: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Outputs[0].Node != opt.Inputs[0].Node {
		t.Fatalf("mux with const-1 selector should forward first branch")
	}
	if opt.ComputeStats().Ops != 0 {
		t.Fatalf("mux not eliminated")
	}
}

func TestCopyPropRemovesIdents(t *testing.T) {
	g := &Graph{}
	in := g.AddInput("a", 8)
	i1 := g.AddOp(wire.Ident, 8, in)
	i2 := g.AddOp(wire.Ident, 16, i1) // widening copy, also removable
	g.AddOutput("o", i2)
	opt, err := Optimize(g, OptOptions{CopyProp: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.ComputeStats().Ops != 0 {
		t.Fatalf("idents remain: %+v", opt.ComputeStats())
	}
}

func TestCSEMergesDuplicates(t *testing.T) {
	g := &Graph{}
	a := g.AddInput("a", 8)
	b := g.AddInput("b", 8)
	s1 := g.AddOp(wire.Add, 8, a, b)
	s2 := g.AddOp(wire.Add, 8, a, b)
	x := g.AddOp(wire.Xor, 8, s1, s2) // becomes xor(s, s)
	g.AddOutput("o", x)
	opt, err := Optimize(g, OptOptions{CSE: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.ComputeStats().Ops; n != 2 {
		t.Fatalf("ops after CSE = %d, want 2 (one add, one xor)", n)
	}
}

func TestCSEMergesConsts(t *testing.T) {
	g := &Graph{}
	c1 := g.AddConst(7, 8)
	c2 := g.AddConst(7, 8)
	s := g.AddOp(wire.Add, 8, c1, c2)
	g.AddOutput("o", s)
	opt, err := Optimize(g, OptOptions{CSE: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.ComputeStats().Consts; n != 1 {
		t.Fatalf("consts after CSE = %d, want 1", n)
	}
}

// TestCSEMergesLongOperandLists: operand lists longer than three (an
// already fused MuxChain) merge only when every operand matches.
func TestCSEMergesLongOperandLists(t *testing.T) {
	g := &Graph{}
	s := g.AddInput("s", 1)
	a := g.AddInput("a", 8)
	b := g.AddInput("b", 8)
	m1 := g.AddOp(wire.MuxChain, 8, s, a, s, b, a)
	m2 := g.AddOp(wire.MuxChain, 8, s, a, s, b, a)
	m3 := g.AddOp(wire.MuxChain, 8, s, a, s, b, b)
	g.AddOutput("o", g.AddOp(wire.Xor, 8, g.AddOp(wire.Xor, 8, m1, m2), m3))
	opt, err := Optimize(g, OptOptions{CSE: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.ComputeStats().OpCounts[wire.MuxChain]; n != 2 {
		t.Fatalf("mux chains after CSE = %d, want 2 (the last operand tells two apart)", n)
	}
}

func buildMuxChain(depth int) (*Graph, NodeID) {
	g := &Graph{}
	def := g.AddInput("def", 8)
	cur := def
	for i := 0; i < depth; i++ {
		s := g.AddInput(itoa(i)+"s", 1)
		v := g.AddInput(itoa(i)+"v", 8)
		cur = g.AddOp(wire.Mux, 8, s, v, cur)
	}
	g.AddOutput("o", cur)
	return g, cur
}

func TestMuxChainFuse(t *testing.T) {
	g, _ := buildMuxChain(4)
	opt, err := Optimize(g, OptOptions{MuxChainFuse: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	st := opt.ComputeStats()
	if st.OpCounts[wire.MuxChain] != 1 || st.Ops != 1 {
		t.Fatalf("fusion result: %+v", st.OpCounts)
	}
	n := opt.Nodes[opt.Outputs[0].Node]
	if len(n.Args) != 9 { // 4 (sel,val) pairs + default
		t.Fatalf("fused arity = %d, want 9", len(n.Args))
	}
}

func TestMuxChainFuseSkipsSharedInterior(t *testing.T) {
	g := &Graph{}
	s1 := g.AddInput("s1", 1)
	s2 := g.AddInput("s2", 1)
	v1 := g.AddInput("v1", 8)
	v2 := g.AddInput("v2", 8)
	def := g.AddInput("def", 8)
	inner := g.AddOp(wire.Mux, 8, s2, v2, def)
	outer := g.AddOp(wire.Mux, 8, s1, v1, inner)
	g.AddOutput("o", outer)
	g.AddOutput("inner", inner) // second use of the interior mux
	opt, err := Optimize(g, OptOptions{MuxChainFuse: true, DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.ComputeStats().OpCounts[wire.MuxChain] != 0 {
		t.Fatal("shared interior mux must not be absorbed")
	}
}

func TestDCERemovesDeadLogic(t *testing.T) {
	g := &Graph{}
	a := g.AddInput("a", 8)
	live := g.AddOp(wire.Not, 8, a)
	g.AddOp(wire.Neg, 8, a) // dead
	g.AddOutput("o", live)
	// A register no output reaches is architectural state: it and its
	// next-state cone survive, so a waveform can show it.
	r := g.AddReg("r", 8, 0)
	g.SetRegNext(r, g.AddOp(wire.Not, 8, r))
	opt, err := Optimize(g, OptOptions{DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.ComputeStats().Ops; n != 2 {
		t.Fatalf("ops after DCE = %d, want 2 (the output's and the register's)", n)
	}
	if len(opt.Regs) != 1 {
		t.Fatalf("regs after DCE = %d, want 1", len(opt.Regs))
	}
}

func TestLevelizePaperExample(t *testing.T) {
	// Figure 11: ops at two layers once fused… here we use Figure 1's
	// graph: add/sub at layer 0, and at layer 1.
	g := paperFigure1(1, 2, 4)
	lv, err := Levelize(g)
	if err != nil {
		t.Fatal(err)
	}
	if lv.NumLayers != 2 {
		t.Fatalf("layers = %d, want 2", lv.NumLayers)
	}
	if len(lv.Layers[0]) != 2 || len(lv.Layers[1]) != 1 {
		t.Fatalf("layer sizes = %v", lv.LayerSizes())
	}
	if lv.EffectualOps != 3 {
		t.Fatalf("effectual = %d", lv.EffectualOps)
	}
	// Identity accounting: sum (layer 0) is consumed by the and (layer 1)
	// and by reg1's write-back (layer 2) -> needs 1 identity; diff (layer
	// 0) likewise -> 1; and (layer 1) -> 0; the three registers are
	// consumed at layer 0 -> 0 each. Total 2.
	if lv.IdentityOps != 2 {
		t.Fatalf("identities = %d, want 2", lv.IdentityOps)
	}
}

func TestLevelizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := RandomGraph(rng, DefaultRandomParams())
		lv, err := Levelize(g)
		if err != nil {
			t.Fatal(err)
		}
		// Every op's arguments sit at strictly lower layers.
		for id := range g.Nodes {
			n := &g.Nodes[id]
			if n.Kind != KindOp {
				if lv.LevelOf[id] != -1 {
					t.Fatalf("source at layer %d", lv.LevelOf[id])
				}
				continue
			}
			for _, a := range n.Args {
				if lv.LevelOf[a] >= lv.LevelOf[id] {
					t.Fatalf("arg %d layer %d >= node %d layer %d",
						a, lv.LevelOf[a], id, lv.LevelOf[id])
				}
			}
		}
		// Slots are a permutation of 0..n-1.
		seen := make([]bool, len(g.Nodes))
		for _, s := range lv.Slot {
			if s < 0 || int(s) >= len(seen) || seen[s] {
				t.Fatalf("bad slot %d", s)
			}
			seen[s] = true
		}
		// Layer sizes sum to the op count.
		sum := 0
		for _, s := range lv.LayerSizes() {
			sum += s
		}
		if int64(sum) != lv.EffectualOps {
			t.Fatalf("layer sizes sum %d != effectual %d", sum, lv.EffectualOps)
		}
		// The N rank ascends by (op, arity), and the layers, read one after
		// the other, are grouped by it with consecutive ascending slots.
		for i := 1; i < len(lv.OpTable); i++ {
			a, b := lv.OpTable[i-1], lv.OpTable[i]
			if a.Op > b.Op || (a.Op == b.Op && a.Arity >= b.Arity) {
				t.Fatalf("OpTable not ascending at %d: %v then %v", i, a, b)
			}
		}
		next := int32(len(g.Nodes)) - int32(lv.EffectualOps)
		for l, layer := range lv.Layers {
			n := 0
			for _, id := range layer {
				nd := &g.Nodes[id]
				sig := OpSig{Op: nd.Op, Arity: uint8(len(nd.Args))}
				for n < len(lv.OpTable) && lv.OpTable[n] != sig {
					n++
				}
				if n == len(lv.OpTable) {
					t.Fatalf("layer %d: node %d (%v) breaks the N-coordinate grouping", l, id, sig)
				}
				if lv.Slot[id] != next {
					t.Fatalf("layer %d: node %d has slot %d, want %d", l, id, lv.Slot[id], next)
				}
				next++
			}
		}
	}
}
