package oim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/einsum"
	"rteaal/internal/fibertree"
	"rteaal/internal/teaal"
	"rteaal/internal/wire"
)

// buildFrom levelizes and builds the OIM for a graph.
func buildFrom(t *testing.T, g *dfg.Graph) *Tensor {
	t.Helper()
	lv, err := dfg.Levelize(g)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// paperFigure9b builds the two-multiply dataflow graph of Figure 9b with
// register inputs 1, 2, 4: out1 = r1*r2, out2 = r2*r3.
func paperFigure9b() *dfg.Graph {
	g := &dfg.Graph{Name: "fig9b"}
	r1 := g.AddReg("reg1", 8, 1)
	r2 := g.AddReg("reg2", 8, 2)
	r3 := g.AddReg("reg3", 8, 4)
	m1 := g.AddOp(wire.Mul, 8, r1, r2)
	m2 := g.AddOp(wire.Mul, 8, r2, r3)
	g.SetRegNext(r1, m1)
	g.SetRegNext(r2, m2)
	g.SetRegNext(r3, m2)
	g.AddOutput("out1", m1)
	g.AddOutput("out2", m2)
	return g
}

func TestBuildPaperFigure9b(t *testing.T) {
	ten := buildFrom(t, paperFigure9b())
	if ten.NumLayers() != 1 {
		t.Fatalf("layers = %d, want 1", ten.NumLayers())
	}
	if ten.TotalOps() != 2 || ten.TotalOperands() != 4 {
		t.Fatalf("ops=%d operands=%d", ten.TotalOps(), ten.TotalOperands())
	}
	if len(ten.OpTable) != 1 || ten.OpTable[0].Op != wire.Mul || ten.OpTable[0].Arity != 2 {
		t.Fatalf("op table = %v", ten.OpTable)
	}
	// Registers occupy slots 0..2; ops get 3 and 4 (the S rank gains two
	// outputs, matching Figure 10b).
	ops := ten.Layers[0]
	if ops[0].Out != 3 || ops[1].Out != 4 {
		t.Fatalf("op slots = %d, %d", ops[0].Out, ops[1].Out)
	}
	if ops[0].Args[0] != 0 || ops[0].Args[1] != 1 || ops[1].Args[0] != 1 || ops[1].Args[1] != 2 {
		t.Fatalf("operand slots = %v, %v", ops[0].Args, ops[1].Args)
	}
}

// simViaCascade drives a design through the einsum reference evaluator,
// returning output+register traces under random stimulus.
func simViaCascade(t *testing.T, ten *Tensor, seed int64, cycles int) []uint64 {
	t.Helper()
	li := make([]uint64, ten.NumSlots)
	for _, c := range ten.ConstSlots {
		li[c.Slot] = c.Value
	}
	for _, r := range ten.RegSlots {
		li[r.Q] = r.Init
	}
	ft := ten.Fibertree()
	env := einsum.Env{OpOf: ten.OpOf, MaskOf: ten.MaskOf}
	rng := rand.New(rand.NewSource(seed))
	var trace []uint64
	next := make([]uint64, len(ten.RegSlots))
	for c := 0; c < cycles; c++ {
		for i, s := range ten.InputSlots {
			li[s] = rng.Uint64() & ten.Masks[ten.InputSlots[i]]
		}
		if err := einsum.EvalCascade1(ft, li, env); err != nil {
			t.Fatal(err)
		}
		for _, s := range ten.OutputSlots {
			trace = append(trace, li[s])
		}
		for i, r := range ten.RegSlots {
			next[i] = li[r.Next] & r.Mask
		}
		for i, r := range ten.RegSlots {
			li[r.Q] = next[i]
		}
		for _, r := range ten.RegSlots {
			trace = append(trace, li[r.Q])
		}
	}
	return trace
}

// simViaOracle produces the same trace with the dfg interpreter.
func simViaOracle(t *testing.T, g *dfg.Graph, seed int64, cycles int) []uint64 {
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

// TestCascade1MatchesOracle is the first end-to-end validation of the
// paper's formulation: simulating through the einsum cascade over the OIM
// fibertree must reproduce the dataflow-graph oracle bit for bit.
func TestCascade1MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildFrom(t, opt)
		seed := rng.Int63()
		want := simViaOracle(t, opt, seed, 12)
		got := simViaCascade(t, ten, seed, 12)
		if len(want) != len(got) {
			t.Fatalf("trial %d: trace lengths differ", trial)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: trace[%d] = %d, oracle %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLoweringsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		ten := buildFrom(t, g)
		for _, optimized := range []bool{false, true} {
			a := ten.Lower(optimized)
			if err := a.Validate(ten); err != nil {
				t.Fatalf("trial %d optimized=%v: %v", trial, optimized, err)
			}
			if optimized && (a.SPayload != nil || a.NPayload != nil || a.OPayload != nil || a.RPayload != nil) {
				t.Fatal("optimized lowering must elide payload arrays")
			}
			if !optimized && (len(a.SPayload) != ten.TotalOps() || len(a.RPayload) != ten.TotalOperands()) {
				t.Fatal("unoptimized lowering must keep payload arrays")
			}
		}
		if err := ten.LowerSwizzled().Validate(ten); err != nil {
			t.Fatalf("trial %d swizzled: %v", trial, err)
		}
	}
}

// TestSwizzledValidateRejectsCorruption damages each part of the run-length
// format in turn; Validate must notice every one.
func TestSwizzledValidateRejectsCorruption(t *testing.T) {
	ten := buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(8)), dfg.DefaultRandomParams()))
	long := -1 // a run with at least two ops, to split and to shorten
	for i, r := range ten.LowerSwizzled().Runs {
		if r.Count >= 2 {
			long = i
			break
		}
	}
	if long < 0 {
		t.Fatal("no multi-op run to corrupt")
	}
	cases := map[string]func(sw *Swizzled){
		"run dropped":     func(sw *Swizzled) { sw.Runs = sw.Runs[:len(sw.Runs)-1] },
		"run repeated":    func(sw *Swizzled) { sw.Runs = append(sw.Runs, sw.Runs[len(sw.Runs)-1]) },
		"run shortened":   func(sw *Swizzled) { sw.Runs[long].Count-- },
		"run shifted":     func(sw *Swizzled) { sw.Runs[long].First++ },
		"wrong type":      func(sw *Swizzled) { sw.Runs[long].Sig = (sw.Runs[long].Sig + 1) % uint16(sw.NumSigs) },
		"runs swapped":    func(sw *Swizzled) { sw.Runs[0], sw.Runs[len(sw.Runs)-1] = sw.Runs[len(sw.Runs)-1], sw.Runs[0] },
		"count mismatch":  func(sw *Swizzled) { sw.NPayload[int(sw.Runs[0].Sig)]++ },
		"operand changed": func(sw *Swizzled) { sw.RCoord[len(sw.RCoord)/2] ^= 1 },
		"operand dropped": func(sw *Swizzled) { sw.RCoord = sw.RCoord[:len(sw.RCoord)-1] },
	}
	for name, corrupt := range cases {
		sw := ten.LowerSwizzled()
		corrupt(sw)
		if err := sw.Validate(ten); err == nil {
			t.Errorf("%s: corrupt lowering accepted", name)
		}
	}
	// A split run is still a valid encoding of the same traversal: what a
	// sub-tensor's sparser S coordinates produce.
	sw := ten.LowerSwizzled()
	r := sw.Runs[long]
	sw.Runs = slices.Insert(sw.Runs, long+1, Run{Sig: r.Sig, First: r.First + 1, Count: r.Count - 1})
	sw.Runs[long].Count = 1
	if err := sw.Validate(ten); err != nil {
		t.Errorf("split run rejected: %v", err)
	}
}

// TestLowerSwizzledRegroupsUngroupedLayers feeds LowerSwizzled what Build
// never emits — a layer whose operations are not grouped by type, as a
// hand-written JSON tensor may be — and checks the lowering still groups
// it, with the interleaved S coordinates split into several runs.
func TestLowerSwizzledRegroupsUngroupedLayers(t *testing.T) {
	ten := buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(9)), dfg.DefaultRandomParams()))
	mixed := *ten
	mixed.Layers = slices.Clone(ten.Layers)
	for i, layer := range ten.Layers {
		layer = slices.Clone(layer)
		slices.Reverse(layer)
		mixed.Layers[i] = layer
	}
	sw := mixed.LowerSwizzled()
	if err := sw.Validate(&mixed); err != nil {
		t.Fatal(err)
	}
	if len(sw.Runs) <= len(ten.LowerSwizzled().Runs) {
		t.Fatalf("reversed layers lowered to %d runs, want more than the %d of the grouped tensor",
			len(sw.Runs), len(ten.LowerSwizzled().Runs))
	}
}

func TestSwizzledGroupsByType(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
	ten := buildFrom(t, g)
	sw := ten.LowerSwizzled()

	// Reconstruct (layer, sig, out, args) tuples by expanding the runs and
	// compare as sets with the canonical tensor.
	ru, si, ri := 0, 0, 0
	type key struct {
		layer int
		sig   uint16
		out   int32
	}
	seen := map[key][]int32{}
	for layer := 0; layer < ten.NumLayers(); layer++ {
		for sig := 0; sig < sw.NumSigs; sig++ {
			ar := int(ten.OpTable[sig].Arity)
			prev := int32(-1)
			for left := sw.NPayload[layer*sw.NumSigs+sig]; left > 0; ru++ {
				r := sw.Runs[ru]
				if int(r.Sig) != sig || r.Count < 1 || r.Count > left {
					t.Fatalf("run %d (%+v) does not fit group (%d,%d)", ru, r, layer, sig)
				}
				for out := r.First; out < r.First+r.Count; out++ {
					if out <= prev {
						t.Fatalf("group (%d,%d) not sorted", layer, sig)
					}
					prev = out
					seen[key{layer, uint16(sig), out}] = sw.RCoord[ri : ri+ar]
					si++
					ri += ar
				}
				left -= r.Count
			}
		}
	}
	if ru != len(sw.Runs) || si != ten.TotalOps() || ri != ten.TotalOperands() {
		t.Fatalf("swizzled streams exhausted at %d/%d/%d", ru, si, ri)
	}
	for layer, ops := range ten.Layers {
		for _, op := range ops {
			args, ok := seen[key{layer, op.Sig, op.Out}]
			if !ok {
				t.Fatalf("op s=%d missing from swizzled form", op.Out)
			}
			for i := range args {
				if args[i] != op.Args[i] {
					t.Fatalf("op s=%d operand %d diverges", op.Out, i)
				}
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
	ten := buildFrom(t, g)
	var buf bytes.Buffer
	if err := ten.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlots != ten.NumSlots || got.TotalOps() != ten.TotalOps() ||
		len(got.OpTable) != len(ten.OpTable) || len(got.RegSlots) != len(ten.RegSlots) {
		t.Fatal("round-trip changed shape")
	}
	seed := int64(42)
	want := simViaCascade(t, ten, seed, 6)
	gotTr := simViaCascade(t, got, seed, 6)
	for i := range want {
		if want[i] != gotTr[i] {
			t.Fatalf("round-tripped tensor diverges at %d", i)
		}
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{`,
		`{"num_slots": 2, "masks": [1], "layers": [[{"n": 9, "s": 0, "r": []}]], "op_table": []}`,
		`{"num_slots": 2, "masks": [1, 1], "layers": [[{"n": 0, "s": 5, "r": [0, 0]}]], "op_table": [{"op": 0, "arity": 2}]}`,
		`{"num_slots": 2, "masks": [1, 1], "layers": [[{"n": 0, "s": 1, "r": [0]}]], "op_table": [{"op": 0, "arity": 2}]}`,
		`{"num_slots": 2, "masks": [1, 1], "layers": [], "op_table": [{"op": 200, "arity": 2}]}`,
	}
	for i, src := range cases {
		if _, err := ReadJSON(bytes.NewBufferString(src)); err == nil {
			t.Errorf("case %d: corrupt JSON accepted", i)
		}
	}
}

func TestFibertreeExportShapes(t *testing.T) {
	ten := buildFrom(t, paperFigure9b())
	ft := ten.Fibertree()
	if len(ft.Ranks) != 5 || ft.Ranks[0] != "I" || ft.Ranks[4] != "R" {
		t.Fatalf("ranks = %v", ft.Ranks)
	}
	if ft.NNZ() != ten.TotalOperands() {
		t.Fatalf("NNZ = %d, want %d", ft.NNZ(), ten.TotalOperands())
	}
	// Every leaf payload of a mask tensor is 1.
	ft.Walk(func(_ []fibertree.Coord, v uint64) {
		if v != 1 {
			t.Fatalf("mask payload = %d", v)
		}
	})
}

func TestFootprintOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := dfg.RandomGraph(rng, dfg.RandomParams{Inputs: 4, Regs: 8, Ops: 300, Consts: 6, MaxWidth: 16, MuxBias: 0.3})
	ten := buildFrom(t, g)
	un := ten.FootprintBytes(teaal.OIMUnoptimized())
	opt := ten.FootprintBytes(teaal.OIMOptimized())
	sw := ten.FootprintBytes(teaal.OIMSwizzled())
	if !(opt < un) {
		t.Errorf("optimized %d not smaller than unoptimized %d", opt, un)
	}
	if sw <= 0 || opt <= 0 {
		t.Errorf("degenerate footprints: sw=%d opt=%d", sw, opt)
	}
}

func TestDensityTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := dfg.RandomGraph(rng, dfg.RandomParams{Inputs: 4, Regs: 8, Ops: 2000, Consts: 6, MaxWidth: 8, MuxBias: 0.2})
	ten := buildFrom(t, g)
	d := ten.Density()
	if d <= 0 || d > 1e-2 {
		t.Errorf("density = %g, expected a very sparse tensor", d)
	}
}
