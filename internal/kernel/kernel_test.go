package kernel

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

func buildTensor(t *testing.T, g *dfg.Graph) *oim.Tensor {
	t.Helper()
	lv, err := dfg.Levelize(g)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// engineTrace runs an engine under seeded stimulus, collecting outputs and
// register snapshots.
func engineTrace(e Engine, seed int64, cycles int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	nIn := len(e.Tensor().InputSlots)
	var trace []uint64
	for c := 0; c < cycles; c++ {
		for i := 0; i < nIn; i++ {
			e.PokeInput(i, rng.Uint64())
		}
		e.Step()
		for i := range e.Tensor().OutputSlots {
			trace = append(trace, e.PeekOutput(i))
		}
		trace = append(trace, e.RegSnapshot()...)
	}
	return trace
}

// oracleTrace produces the same trace shape from the dfg interpreter.
func oracleTrace(t *testing.T, g *dfg.Graph, seed int64, cycles int) []uint64 {
	t.Helper()
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var trace []uint64
	for c := 0; c < cycles; c++ {
		for i, p := range g.Inputs {
			it.PokeInput(i, rng.Uint64()&g.Node(p.Node).Mask())
		}
		it.Step()
		trace = append(trace, it.OutputSnapshot()...)
		trace = append(trace, it.RegSnapshot()...)
	}
	return trace
}

// allConfigs lists every engine configuration under test: one per kind.
func allConfigs() []Config {
	var cfgs []Config
	for _, k := range Kinds() {
		cfgs = append(cfgs, Config{Kind: k})
	}
	return cfgs
}

// TestAllKernelsMatchOracle is the central equivalence property of the
// repository: every kernel configuration (all seven unrolling levels) must
// reproduce the dataflow-graph oracle bit for bit on random optimised
// circuits, including fused mux chains with arity beyond the inline operand
// limit.
func TestAllKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	params := dfg.DefaultRandomParams()
	params.Ops = 120
	params.MuxBias = 0.35 // plenty of mux chains after fusion
	for trial := 0; trial < 20; trial++ {
		g := dfg.RandomGraph(rng, params)
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildTensor(t, opt)
		seed := rng.Int63()
		want := oracleTrace(t, opt, seed, 16)
		for _, cfg := range allConfigs() {
			e, err := New(ten, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := engineTrace(e, seed, 16)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: trace length %d, want %d", trial, e.Name(), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d kernel %s: trace[%d] = %d, oracle %d",
						trial, e.Name(), i, got[i], want[i])
				}
			}
		}
	}
}

// TestKernelsAgreeOnUnoptimizedGraphs runs the engines over graphs that
// never saw the optimiser (no mux-chain fusion, consts intact).
func TestKernelsAgreeOnUnoptimizedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		ten := buildTensor(t, g)
		seed := rng.Int63()
		want := oracleTrace(t, g, seed, 10)
		for _, cfg := range allConfigs() {
			e, _ := New(ten, cfg)
			got := engineTrace(e, seed, 10)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d kernel %s: diverges at %d", trial, e.Name(), i)
				}
			}
		}
	}
}

func TestKernelResetAndPorts(t *testing.T) {
	g := &dfg.Graph{Name: "acc"}
	in := g.AddInput("x", 8)
	r := g.AddReg("acc", 8, 7)
	sum := g.AddOp(wire.Add, 8, r, in)
	g.SetRegNext(r, sum)
	g.AddOutput("acc", r)
	g.AddOutput("sum", sum)
	ten := buildTensor(t, g)

	for _, cfg := range allConfigs() {
		e, err := New(ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.PokeInput(0, 3)
		e.Step()
		if got := e.RegSnapshot()[0]; got != 10 {
			t.Fatalf("%s: reg after step = %d, want 10", e.Name(), got)
		}
		// Outputs sample at settle: acc shows the pre-commit value 7; sum
		// shows 10.
		if got := e.PeekOutput(0); got != 7 {
			t.Fatalf("%s: acc sample = %d, want 7", e.Name(), got)
		}
		if got := e.PeekOutput(1); got != 10 {
			t.Fatalf("%s: sum sample = %d, want 10", e.Name(), got)
		}
		e.Reset()
		if got := e.RegSnapshot()[0]; got != 7 {
			t.Fatalf("%s: reg after reset = %d, want 7", e.Name(), got)
		}
	}
}

func TestKernelPeekPokeSlots(t *testing.T) {
	g := &dfg.Graph{Name: "t"}
	in := g.AddInput("x", 16)
	r := g.AddReg("r", 16, 0)
	n := g.AddOp(wire.Xor, 16, r, in)
	g.SetRegNext(r, n)
	g.AddOutput("y", n)
	ten := buildTensor(t, g)
	e, _ := New(ten, Config{Kind: PSU})
	e.PokeSlot(ten.InputSlots[0], 0xFFFF)
	e.Settle()
	if got := e.PeekSlot(ten.OutputSlots[0]); got != 0xFFFF {
		t.Fatalf("slot peek = %#x", got)
	}
	// PokeSlot masks to the slot width.
	e.PokeSlot(ten.InputSlots[0], 0xF0000)
	if got := e.PeekSlot(ten.InputSlots[0]); got != 0 {
		t.Fatalf("poke mask = %#x", got)
	}
}

func TestRegisterOnlyDesign(t *testing.T) {
	// A design with zero combinational operations: a register chained to
	// an input directly.
	g := &dfg.Graph{Name: "wireonly"}
	in := g.AddInput("x", 8)
	r := g.AddReg("r", 8, 5)
	g.SetRegNext(r, in)
	g.AddOutput("y", r)
	ten := buildTensor(t, g)
	if ten.NumLayers() != 0 {
		t.Fatalf("layers = %d", ten.NumLayers())
	}
	for _, cfg := range allConfigs() {
		e, err := New(ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.PokeInput(0, 42)
		e.Step()
		if got := e.RegSnapshot()[0]; got != 42 {
			t.Fatalf("%s: reg = %d", e.Name(), got)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("XX"); err == nil {
		t.Fatal("want error for unknown kind")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind name")
	}
}

func TestNewRejectsEmptyTensor(t *testing.T) {
	if _, err := New(&oim.Tensor{}, Config{Kind: RU}); err == nil {
		t.Fatal("want error for empty design")
	}
}

// TestDeepMuxChains stresses the spilled-operand path of the tape kernels
// and the variable-arity paths of the loop kernels.
func TestDeepMuxChains(t *testing.T) {
	g := &dfg.Graph{Name: "chains"}
	def := g.AddInput("def", 8)
	var args []dfg.NodeID
	for i := 0; i < 9; i++ {
		s := g.AddInput("s", 1)
		v := g.AddInput("v", 8)
		args = append(args, s, v)
	}
	args = append(args, def)
	mc := g.AddOp(wire.MuxChain, 8, args...)
	g.AddOutput("y", mc)
	ten := buildTensor(t, g)
	seed := int64(5)
	want := oracleTrace(t, g, seed, 12)
	for _, cfg := range allConfigs() {
		e, _ := New(ten, cfg)
		got := engineTrace(e, seed, 12)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverges at %d", e.Name(), i)
			}
		}
	}
}
