package kernel

import (
	"math/rand"
	"strings"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

func buildTensor(t testing.TB, g *dfg.Graph) *oim.Tensor {
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

// compileTensor is g through the default pipeline, oim.Compile.
func compileTensor(t *testing.T, g *dfg.Graph) *oim.Tensor {
	t.Helper()
	ten, _, err := oim.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// newEngine lowers t for cfg and mints one engine over the program.
func newEngine(t *oim.Tensor, cfg Config) (Engine, error) {
	p, err := NewProgram(t, cfg)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(), nil
}

// pokeInput drives an engine's idx-th primary input through its slot.
func pokeInput(e Engine, idx int, v uint64) { e.PokeSlot(e.Tensor().InputSlots[idx], v) }

// regsOf reads an engine's committed registers through their Q slots.
func regsOf(e Engine) []uint64 {
	regs := make([]uint64, len(e.Tensor().RegSlots))
	for i, r := range e.Tensor().RegSlots {
		regs[i] = e.PeekSlot(r.Q)
	}
	return regs
}

// pokeLane drives one batch lane's idx-th primary input through its slot.
func pokeLane(b *Batch, lane, idx int, v uint64) { b.PokeSlot(lane, b.Tensor().InputSlots[idx], v) }

// laneRegs reads one batch lane's committed registers through their Q slots.
func laneRegs(b *Batch, lane int) []uint64 {
	regs := make([]uint64, len(b.Tensor().RegSlots))
	for i, r := range b.Tensor().RegSlots {
		regs[i] = b.PeekSlot(lane, r.Q)
	}
	return regs
}

// engineTrace runs an engine under seeded stimulus, collecting outputs and
// register snapshots.
func engineTrace(e Engine, seed int64, cycles int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	nIn := len(e.Tensor().InputSlots)
	var trace []uint64
	for c := 0; c < cycles; c++ {
		for i := 0; i < nIn; i++ {
			pokeInput(e, i, rng.Uint64())
		}
		e.Step()
		for i := range e.Tensor().OutputSlots {
			trace = append(trace, e.PeekOutput(i))
		}
		trace = append(trace, regsOf(e)...)
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
		ten, opt, err := oim.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Int63()
		want := oracleTrace(t, opt, seed, 16)
		for _, cfg := range allConfigs() {
			e, err := newEngine(ten, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := engineTrace(e, seed, 16)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: trace length %d, want %d", trial, cfg.Kind, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d kernel %s: trace[%d] = %d, oracle %d",
						trial, cfg.Kind, i, got[i], want[i])
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
			e, _ := newEngine(ten, cfg)
			got := engineTrace(e, seed, 10)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d kernel %s: diverges at %d", trial, cfg.Kind, i)
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
		e, err := newEngine(ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pokeInput(e, 0, 3)
		e.Step()
		if got := regsOf(e)[0]; got != 10 {
			t.Fatalf("%s: reg after step = %d, want 10", cfg.Kind, got)
		}
		// Outputs sample at settle: acc shows the pre-commit value 7; sum
		// shows 10.
		if got := e.PeekOutput(0); got != 7 {
			t.Fatalf("%s: acc sample = %d, want 7", cfg.Kind, got)
		}
		if got := e.PeekOutput(1); got != 10 {
			t.Fatalf("%s: sum sample = %d, want 10", cfg.Kind, got)
		}
		e.Reset()
		if got := regsOf(e)[0]; got != 7 {
			t.Fatalf("%s: reg after reset = %d, want 7", cfg.Kind, got)
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
	e, _ := newEngine(ten, Config{Kind: PSU})
	e.PokeSlot(ten.InputSlots[0], 0xFFFF)
	e.Step()
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
		e, err := newEngine(ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pokeInput(e, 0, 42)
		e.Step()
		if got := regsOf(e)[0]; got != 42 {
			t.Fatalf("%s: reg = %d", cfg.Kind, got)
		}
	}
}

func TestNewRejectsEmptyTensor(t *testing.T) {
	if _, err := NewProgram(&oim.Tensor{}, Config{Kind: RU}); err == nil {
		t.Fatal("want error for empty design")
	}
}

// TestNewRejectsUnknownKind: a kind past the ladder is refused, by a name
// that says what it was.
func TestNewRejectsUnknownKind(t *testing.T) {
	g := &dfg.Graph{Name: "not"}
	g.AddOutput("y", g.AddOp(wire.Not, 8, g.AddInput("x", 8)))
	if _, err := NewProgram(buildTensor(t, g), Config{Kind: 99}); err == nil || !strings.Contains(err.Error(), "kernel(99)") {
		t.Fatalf("kind 99 lowered with %v, want an error naming kernel(99)", err)
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
		e, _ := newEngine(ten, cfg)
		got := engineTrace(e, seed, 12)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverges at %d", cfg.Kind, i)
			}
		}
	}
}

// BenchmarkMuxChainFusion times mux-chain fusion (§6.1) on and off: IU, the
// kernel every workload runs, on s1/16 compiled with and without
// MuxChainFuse. It reports each tensor's ops and runs beside the time.
func BenchmarkMuxChainFusion(b *testing.B) {
	for _, fuse := range []bool{true, false} {
		name := map[bool]string{true: "on", false: "off"}[fuse]
		b.Run(name, func(b *testing.B) {
			g, err := gen.Generate(gen.Spec{Family: gen.Boom, Cores: 1, Scale: 16})
			if err != nil {
				b.Fatal(err)
			}
			o := dfg.DefaultOptOptions()
			o.MuxChainFuse = fuse
			if g, err = dfg.Optimize(g, o); err != nil {
				b.Fatal(err)
			}
			ten := buildTensor(b, g)
			e, err := newEngine(ten, Config{Kind: IU})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := range ten.InputSlots {
				pokeInput(e, i, rng.Uint64())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(ten.TotalOps()), "ops/cycle")
			b.ReportMetric(float64(len(ten.Runs)), "runs")
		})
	}
}
