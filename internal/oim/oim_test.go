package oim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"rteaal/internal/dfg"
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

func TestLoweringsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		ten := buildFrom(t, g)
		if err := ten.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		a := ten.Lower()
		if err := validateArrays(a, ten); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
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
			if validateArrays(&bad, ten) == nil {
				t.Fatalf("trial %d: corrupt %s accepted", trial, name)
			}
		}
	}
}

// validateArrays cross-checks a lowering against the tensor it came from.
func validateArrays(a *Arrays, t *Tensor) error {
	if len(a.SCoord) != t.TotalOps() || len(a.RCoord) != t.TotalOperands() || len(a.IPayload) != t.NumLayers() {
		return fmt.Errorf("array sizes diverge from the tensor")
	}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	count := make([]int32, len(a.IPayload))
	k, r := 0, 0
	t.Ops(func(layer int, sig uint16, out int32, args []int32) {
		count[layer]++
		if a.SCoord[k] != out || a.NCoord[k] != sig {
			fail("op %d coords diverge", k)
		}
		for _, arg := range args {
			if a.RCoord[r] != arg {
				fail("RCoord[%d] diverges", r)
			}
			r++
		}
		k++
	})
	if !slices.Equal(count, a.IPayload) {
		fail("IPayload diverges from the layers' operation counts")
	}
	return err
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

// clone copies every table of a tensor, so a corruption of the copy leaves
// the original whole.
func clone(t *Tensor) *Tensor {
	c := *t
	c.OpTable, c.LayerEnds, c.Runs, c.RCoord = slices.Clone(t.OpTable), slices.Clone(t.LayerEnds), slices.Clone(t.Runs), slices.Clone(t.RCoord)
	c.Masks, c.ConstSlots, c.RegSlots = slices.Clone(t.Masks), slices.Clone(t.ConstSlots), slices.Clone(t.RegSlots)
	c.InputSlots, c.OutputSlots = slices.Clone(t.InputSlots), slices.Clone(t.OutputSlots)
	c.InputNames, c.OutputNames, c.RegNames = slices.Clone(t.InputNames), slices.Clone(t.OutputNames), slices.Clone(t.RegNames)
	return &c
}

// corruptTensor builds a random design and the ways to damage each part of
// it in turn — the run-length format, the op table and every slot and name
// table — with one defect per row. long is a run of at least two operations.
func corruptTensor(t *testing.T) (ten *Tensor, long int, cases map[string]func(c *Tensor)) {
	t.Helper()
	ten = buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(8)), dfg.DefaultRandomParams()))
	long = slices.IndexFunc(ten.Runs, func(r Run) bool { return r.Count >= 2 }) // a run to split and to shorten
	if long < 0 || ten.NumLayers() < 2 {
		t.Fatal("no multi-op run, or no second layer, to corrupt")
	}
	if len(ten.ConstSlots) == 0 || len(ten.RegSlots) == 0 || len(ten.InputSlots) == 0 || len(ten.OutputSlots) == 0 {
		t.Fatal("no constant, register, input or output to corrupt")
	}
	last := len(ten.Runs) - 1
	written := ten.Runs[last].First // a coordinate an operation writes
	cases = map[string]func(c *Tensor){
		"mask table short":      func(c *Tensor) { c.Masks = c.Masks[:len(c.Masks)-1] },
		"unknown op code":       func(c *Tensor) { c.OpTable[0].Op = wire.NumOps },
		"op table arity":        func(c *Tensor) { c.OpTable[0].Arity++ },
		"const out of range":    func(c *Tensor) { c.ConstSlots[0].Slot = int32(c.NumSlots) },
		"reg q out of range":    func(c *Tensor) { c.RegSlots[0].Q = int32(c.NumSlots) },
		"reg next out of range": func(c *Tensor) { c.RegSlots[0].Next = -2 },
		"input out of range":    func(c *Tensor) { c.InputSlots[0] = int32(c.NumSlots) },
		"output out of range":   func(c *Tensor) { c.OutputSlots[0] = -1 },
		"writes an input":       func(c *Tensor) { c.InputSlots[0] = written },
		"writes a constant":     func(c *Tensor) { c.ConstSlots[0].Slot = written },
		"writes a register":     func(c *Tensor) { c.RegSlots[0].Q = written },
		"input names too long":  func(c *Tensor) { c.InputNames = make([]string, len(c.InputSlots)+1) },
		"output names too long": func(c *Tensor) { c.OutputNames = make([]string, len(c.OutputSlots)+1) },
		"reg names too long":    func(c *Tensor) { c.RegNames = make([]string, len(c.RegSlots)+1) },
		"const above its mask":  func(c *Tensor) { c.Masks[c.ConstSlots[0].Slot] = 1; c.ConstSlots[0].Value = 2 },
		"init above its mask":   func(c *Tensor) { c.Masks[c.RegSlots[0].Q] = 1; c.RegSlots[0].Init = 2 },

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
	return ten, long, cases
}

// TestValidateRejectsCorruption: Validate must notice every defect.
func TestValidateRejectsCorruption(t *testing.T) {
	ten, long, cases := corruptTensor(t)
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

// TestJSONRejectsCorrupt: WriteJSON dumps the uncorrupted tensor but refuses
// every defect and writes nothing for it.
func TestJSONRejectsCorrupt(t *testing.T) {
	ten, _, cases := corruptTensor(t)
	var buf bytes.Buffer
	if err := ten.WriteJSON(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("the uncorrupted tensor is not written: %v", err)
	}
	for name, corrupt := range cases {
		c := clone(ten)
		corrupt(c)
		buf.Reset()
		if err := c.WriteJSON(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("%s: corrupt tensor written (%d bytes)", name, buf.Len())
		}
	}
}

// TestJSONRoundTrip decodes what WriteJSON emits back into its document
// type: the layers must list the operations of the tensor's own traversal,
// in order, and every table must be the tensor's.
func TestJSONRoundTrip(t *testing.T) {
	ten := buildFrom(t, dfg.RandomGraph(rand.New(rand.NewSource(5)), dfg.DefaultRandomParams()))
	var buf bytes.Buffer
	if err := ten.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var jt jsonTensor
	if err := json.Unmarshal(buf.Bytes(), &jt); err != nil {
		t.Fatal(err)
	}
	want := make([][]jsonOp, ten.NumLayers())
	ten.Ops(func(layer int, sig uint16, out int32, args []int32) {
		want[layer] = append(want[layer], jsonOp{Sig: sig, Out: out, Args: args})
	})
	if !slices.EqualFunc(jt.Layers, want, func(a, b []jsonOp) bool {
		return slices.EqualFunc(a, b, func(x, y jsonOp) bool {
			return x.Sig == y.Sig && x.Out == y.Out && slices.Equal(x.Args, y.Args)
		})
	}) {
		t.Fatal("layers differ from the tensor's traversal")
	}
	opTable := make([]OpSig, len(jt.OpTable))
	for i, s := range jt.OpTable {
		opTable[i] = OpSig{Op: wire.Op(s.Op), Arity: s.Arity}
	}
	consts := make([]dfg.SlotInit, len(jt.ConstSlots))
	for i, c := range jt.ConstSlots {
		consts[i] = dfg.SlotInit{Slot: c.Slot, Value: c.Value}
	}
	regs := make([]dfg.RegSlot, len(jt.RegSlots))
	for i, r := range jt.RegSlots {
		regs[i] = dfg.RegSlot{Q: r.Q, Next: r.Next, Init: r.Init, Mask: r.Mask}
	}
	switch {
	case jt.Design != ten.Design || jt.NumSlots != ten.NumSlots:
		t.Fatalf("design %q over %d slots, want %q over %d", jt.Design, jt.NumSlots, ten.Design, ten.NumSlots)
	case !slices.Equal(opTable, ten.OpTable):
		t.Fatal("op table differs")
	case !slices.Equal(jt.Masks, ten.Masks):
		t.Fatal("masks differ")
	case !slices.Equal(consts, ten.ConstSlots) || !slices.Equal(regs, ten.RegSlots):
		t.Fatal("constant or register slots differ")
	case !slices.Equal(jt.InputSlots, ten.InputSlots) || !slices.Equal(jt.OutputSlots, ten.OutputSlots):
		t.Fatal("port slots differ")
	case !slices.Equal(jt.InputNames, ten.InputNames) || !slices.Equal(jt.OutputNames, ten.OutputNames) || !slices.Equal(jt.RegNames, ten.RegNames):
		t.Fatal("name tables differ")
	case jt.EffectualOps != ten.EffectualOps || jt.IdentityOps != ten.IdentityOps:
		t.Fatal("operation counts differ")
	}
}

// TestFootprintOrdering is Figure 12's format claim, in bytes: eliding the
// redundant payloads (12b, the arrays RU and OU walk) shrinks the
// explicit-S lowering (12a), and the run-length [I,N,S,O,R] tensor the
// swizzled kernels execute is smaller than either. 12a is 12b plus the four
// payload arrays it elides, counted here rather than built: one int per
// operation for each of SPayload (its N fiber's occupancy) and NPayload (its
// arity), one int per operand for OPayload (its R fiber's occupancy), and
// one byte per operand for RPayload (its mask bit).
func TestFootprintOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := dfg.RandomGraph(rng, dfg.RandomParams{Inputs: 4, Regs: 8, Ops: 300, Consts: 6, MaxWidth: 16, MuxBias: 0.3})
	ten := buildFrom(t, g)
	a := ten.Lower()
	opt := 4*(len(a.IPayload)+len(a.SCoord)+len(a.RCoord)) + 2*len(a.NCoord)
	un := opt + 4*(2*ten.TotalOps()+ten.TotalOperands()) + ten.TotalOperands()
	sw := 4*(len(ten.LayerEnds)+len(ten.RCoord)) + int(unsafe.Sizeof(Run{}))*len(ten.Runs)
	if !(sw < opt && opt < un) {
		t.Errorf("footprints: swizzled %d B, optimized %d B, unoptimized %d B; want strictly increasing", sw, opt, un)
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
