package oim

import (
	"bytes"
	"encoding/json"
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
	// outputs, matching Figure 10b): one run of two multiplies.
	if !slices.Equal(ten.LayerEnds, []int32{1}) || !slices.Equal(ten.Runs, []Run{{Sig: 0, First: 3, Count: 2}}) {
		t.Fatalf("layer ends = %v, runs = %+v", ten.LayerEnds, ten.Runs)
	}
	if !slices.Equal(ten.RCoord, []int32{0, 1, 1, 2}) {
		t.Fatalf("operand slots = %v", ten.RCoord)
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
		if err := ten.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
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
			// The arrays are a derived copy: damage to any of them shows.
			for name, corrupt := range map[string]func(a *Arrays){
				"s coordinate":  func(a *Arrays) { a.SCoord[len(a.SCoord)/2]++ },
				"n coordinate":  func(a *Arrays) { a.NCoord[0]++ },
				"layer payload": func(a *Arrays) { a.IPayload[0]++; a.IPayload[len(a.IPayload)-1]-- },
				"r coordinate":  func(a *Arrays) { a.RCoord = slices.Clone(a.RCoord); a.RCoord[len(a.RCoord)/2]++ },
				"op dropped":    func(a *Arrays) { a.SCoord = a.SCoord[1:] },
			} {
				bad := *a
				bad.IPayload, bad.SCoord, bad.NCoord = slices.Clone(a.IPayload), slices.Clone(a.SCoord), slices.Clone(a.NCoord)
				corrupt(&bad)
				if bad.Validate(ten) == nil {
					t.Fatalf("trial %d optimized=%v: corrupt %s accepted", trial, optimized, name)
				}
			}
		}
	}
}

// TestConeKeepsMarkedOperations: a cone is the marked operations of the
// tensor, in the tensor's order and with the tensor's operand lists, in fewer
// and shorter runs; layers it leaves empty are gone, and it validates.
func TestConeKeepsMarkedOperations(t *testing.T) {
	ten := buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(11)), dfg.RandomParams{
		Inputs: 4, Regs: 10, Ops: 300, Consts: 6, MaxWidth: 16, MuxBias: 0.3}))
	// Mark the fan-in cone of every third register's next state.
	producer := make([][]int32, ten.NumSlots)
	ten.Ops(func(_ int, _ uint16, out int32, args []int32) { producer[out] = args })
	keep := make([]bool, ten.NumSlots)
	var mark func(s int32)
	mark = func(s int32) {
		if !keep[s] {
			keep[s] = true
			for _, a := range producer[s] {
				mark(a)
			}
		}
	}
	for i := 0; i < len(ten.RegSlots); i += 3 {
		mark(ten.RegSlots[i].Next)
	}

	type op struct {
		sig  uint16
		out  int32
		args []int32
	}
	var want, got []op
	ten.Ops(func(_ int, sig uint16, out int32, args []int32) {
		if keep[out] {
			want = append(want, op{sig, out, args})
		}
	})
	before := clone(ten)
	sub := ten.Cone(keep)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	lastLayer := -1
	sub.Ops(func(layer int, sig uint16, out int32, args []int32) {
		got = append(got, op{sig, out, args})
		if layer > lastLayer+1 {
			t.Fatalf("cone keeps empty layer %d", lastLayer+1)
		}
		lastLayer = layer
	})
	if len(want) == 0 || len(want) == ten.TotalOps() {
		t.Fatalf("cone marks %d of %d ops; the test needs a proper subset", len(want), ten.TotalOps())
	}
	if !slices.EqualFunc(got, want, func(a, b op) bool {
		return a.sig == b.sig && a.out == b.out && slices.Equal(a.args, b.args)
	}) {
		t.Fatalf("cone walks %d ops, want the %d marked ones in order", len(got), len(want))
	}
	if lastLayer+1 != sub.NumLayers() || sub.NumSlots != ten.NumSlots {
		t.Fatalf("cone has %d layers (last walked %d) over %d slots", sub.NumLayers(), lastLayer, sub.NumSlots)
	}
	if !slices.Equal(ten.Runs, before.Runs) || !slices.Equal(ten.RCoord, before.RCoord) || !slices.Equal(ten.LayerEnds, before.LayerEnds) {
		t.Fatal("Cone modified the tensor it filtered")
	}
}

// clone copies the arrays a corruption may write to.
func clone(t *Tensor) *Tensor {
	c := *t
	c.LayerEnds, c.Runs, c.RCoord = slices.Clone(t.LayerEnds), slices.Clone(t.Runs), slices.Clone(t.RCoord)
	return &c
}

// TestValidateRejectsCorruption damages each part of the run-length format
// in turn; Validate must notice every one.
func TestValidateRejectsCorruption(t *testing.T) {
	ten := buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(8)), dfg.DefaultRandomParams()))
	long := slices.IndexFunc(ten.Runs, func(r Run) bool { return r.Count >= 2 }) // a run to split and to shorten
	if long < 0 || ten.NumLayers() < 2 {
		t.Fatal("no multi-op run, or no second layer, to corrupt")
	}
	last := len(ten.Runs) - 1
	cases := map[string]func(c *Tensor){
		"run dropped":      func(c *Tensor) { c.Runs = c.Runs[:last] },
		"run repeated":     func(c *Tensor) { c.Runs = append(c.Runs, c.Runs[last]); c.LayerEnds[len(c.LayerEnds)-1]++ },
		"run shortened":    func(c *Tensor) { c.Runs[long].Count-- },
		"run emptied":      func(c *Tensor) { c.Runs[long].Count = 0 },
		"run shifted":      func(c *Tensor) { c.Runs[long].First++ },
		"run out of range": func(c *Tensor) { c.Runs[last].First = int32(c.NumSlots) - 1; c.Runs[last].Count = 2 },
		"unknown type":     func(c *Tensor) { c.Runs[long].Sig = uint16(len(c.OpTable)) },
		"runs swapped":     func(c *Tensor) { c.Runs[0], c.Runs[last] = c.Runs[last], c.Runs[0] },
		"layer end moved":  func(c *Tensor) { c.LayerEnds[0] = c.LayerEnds[1] + 1 },
		"layer end short":  func(c *Tensor) { c.LayerEnds[len(c.LayerEnds)-1]-- },
		"operand dropped":  func(c *Tensor) { c.RCoord = c.RCoord[:len(c.RCoord)-1] },
		"operand negative": func(c *Tensor) { c.RCoord[len(c.RCoord)/2] = -1 },
		"operand forward":  func(c *Tensor) { c.RCoord[0] = c.Runs[last].First },
		"operand in layer": func(c *Tensor) { c.RCoord[len(c.RCoord)-1] = c.Runs[last].First },
	}
	for name, corrupt := range cases {
		c := clone(ten)
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: corrupt tensor accepted", name)
		}
	}
	// A split run is still a valid encoding of the same traversal: what a
	// sub-tensor's sparser S coordinates produce.
	c := clone(ten)
	r := c.Runs[long]
	c.Runs = slices.Insert(c.Runs, long+1, Run{Sig: r.Sig, First: r.First + 1, Count: r.Count - 1})
	c.Runs[long].Count = 1
	for i := range c.LayerEnds {
		if int(c.LayerEnds[i]) > long {
			c.LayerEnds[i]++
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("split run rejected: %v", err)
	}
}

// TestReadJSONRegroupsUngroupedLayers feeds ReadJSON what Build never emits
// — layers whose operations are not grouped by type, as a hand-written
// tensor may be — and checks it still loads grouped, with the interleaved S
// coordinates split into several runs, and simulates identically.
func TestReadJSONRegroupsUngroupedLayers(t *testing.T) {
	ten := buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(9)), dfg.DefaultRandomParams()))
	var buf bytes.Buffer
	if err := ten.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	var layers [][]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["layers"], &layers); err != nil {
		t.Fatal(err)
	}
	for _, layer := range layers {
		slices.Reverse(layer)
	}
	doc["layers"], _ = json.Marshal(layers)
	mixedJSON, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ReadJSON(bytes.NewReader(mixedJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.Runs) <= len(ten.Runs) || mixed.TotalOps() != ten.TotalOps() {
		t.Fatalf("reversed layers loaded as %d runs over %d ops, want more than the %d runs of the grouped tensor over %d",
			len(mixed.Runs), mixed.TotalOps(), len(ten.Runs), ten.TotalOps())
	}
	if want, got := simViaCascade(t, ten, 42, 6), simViaCascade(t, mixed, 42, 6); !slices.Equal(want, got) {
		t.Fatal("regrouped tensor diverges from the grouped one")
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

// TestJSONRejectsCorrupt: every row is a document ReadJSON must refuse,
// because some engine would index out of range on it or two engines would
// disagree about it. The rows after the first five are one defect each in a
// document that loads without it.
func TestJSONRejectsCorrupt(t *testing.T) {
	const (
		head   = `{"num_slots": 4, "masks": [255, 255, 255, 255], "op_table": [{"op": 0, "arity": 2}], `
		layers = `"layers": [[{"n": 0, "s": 2, "r": [0, 1]}], [{"n": 0, "s": 3, "r": [2, 1]}]], `
		ports  = `"input_slots": [0, 1], "input_names": ["a", "b"], "output_slots": [3], "output_names": ["y"]}`
	)
	if _, err := ReadJSON(bytes.NewBufferString(head + layers + ports)); err != nil {
		t.Fatalf("the uncorrupted document is rejected: %v", err)
	}
	cases := map[string]string{
		"truncated":         `{`,
		"type out of range": `{"num_slots": 2, "masks": [1], "layers": [[{"n": 9, "s": 0, "r": []}]], "op_table": []}`,
		"s out of range":    `{"num_slots": 2, "masks": [1, 1], "layers": [[{"n": 0, "s": 5, "r": [0, 0]}]], "op_table": [{"op": 0, "arity": 2}]}`,
		"arity mismatch":    `{"num_slots": 2, "masks": [1, 1], "layers": [[{"n": 0, "s": 1, "r": [0]}]], "op_table": [{"op": 0, "arity": 2}]}`,
		"unknown op code":   `{"num_slots": 2, "masks": [1, 1], "layers": [], "op_table": [{"op": 200, "arity": 2}]}`,

		"mask table short":      `{"num_slots": 4, "masks": [255], "op_table": [{"op": 0, "arity": 2}], ` + layers + ports,
		"add of three":          `{"num_slots": 4, "masks": [255, 255, 255, 255], "op_table": [{"op": 0, "arity": 3}], "layers": [[{"n": 0, "s": 2, "r": [0, 1, 1]}]], ` + ports,
		"r out of range":        head + `"layers": [[{"n": 0, "s": 2, "r": [0, 7]}]], ` + ports,
		"r negative":            head + `"layers": [[{"n": 0, "s": 2, "r": [0, -1]}]], ` + ports,
		"reads its own layer":   head + `"layers": [[{"n": 0, "s": 2, "r": [0, 1]}, {"n": 0, "s": 3, "r": [2, 1]}]], ` + ports,
		"reads a later layer":   head + `"layers": [[{"n": 0, "s": 2, "r": [3, 1]}], [{"n": 0, "s": 3, "r": [0, 1]}]], ` + ports,
		"two writers":           head + `"layers": [[{"n": 0, "s": 3, "r": [0, 1]}], [{"n": 0, "s": 3, "r": [0, 1]}]], ` + ports,
		"writes an input":       head + `"layers": [[{"n": 0, "s": 1, "r": [0, 0]}]], ` + ports,
		"const out of range":    head + layers + `"const_slots": [{"slot": 99, "value": 1}], ` + ports,
		"writes a constant":     head + layers + `"const_slots": [{"slot": 2, "value": 1}], ` + ports,
		"reg q out of range":    head + layers + `"reg_slots": [{"q": 4, "next": 3, "init": 0, "mask": 255}], ` + ports,
		"reg next out of range": head + layers + `"reg_slots": [{"q": 0, "next": -2, "init": 0, "mask": 255}], ` + ports,
		"writes a register":     head + layers + `"reg_slots": [{"q": 2, "next": 3, "init": 0, "mask": 255}], ` + ports,
		"reg names too long":    head + layers + `"reg_names": ["r"], ` + ports,
		"input out of range":    head + layers + `"input_slots": [0, 4], "input_names": ["a", "b"], "output_slots": [3]}`,
		"input names too long":  head + layers + `"input_slots": [0], "input_names": ["a", "b"], "output_slots": [3]}`,
		"output out of range":   head + layers + `"input_slots": [0, 1], "output_slots": [-1]}`,
		"output names too long": head + layers + `"input_slots": [0, 1], "output_slots": [3], "output_names": ["y", "z"]}`,
	}
	for name, src := range cases {
		if _, err := ReadJSON(bytes.NewBufferString(src)); err == nil {
			t.Errorf("%s: corrupt JSON accepted", name)
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
