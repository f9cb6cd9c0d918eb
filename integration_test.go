// End-to-end integration tests across package boundaries: the full
// FIRRTL-text → frontend → optimiser → OIM → kernel pipeline on generated
// designs, cross-checked against the dataflow-graph oracle.
package main

import (
	"math/rand"
	"testing"

	"rteaal/internal/baseline"
	"rteaal/internal/dfg"
	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
	"rteaal/sim"
)

// newEngine lowers t for cfg and mints one engine over the program.
func newEngine(t *oim.Tensor, cfg kernel.Config) (kernel.Engine, error) {
	p, err := kernel.NewProgram(t, cfg)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(), nil
}

// pokeInput drives an engine's idx-th primary input through its slot.
func pokeInput(e kernel.Engine, idx int, v uint64) { e.PokeSlot(e.Tensor().InputSlots[idx], v) }

// regsOf reads an engine's committed registers through their Q slots.
func regsOf(e kernel.Engine) []uint64 {
	regs := make([]uint64, len(e.Tensor().RegSlots))
	for i, r := range e.Tensor().RegSlots {
		regs[i] = e.PeekSlot(r.Q)
	}
	return regs
}

// TestFullPipelineOnGeneratedDesign round-trips a synthesised design
// through FIRRTL text (the external interchange format) and simulates the
// re-elaborated circuit with every kernel (RU among them: Cascade 1 as the
// paper writes it), both baselines, and the RepCut engine, comparing all of
// them to the oracle.
func TestFullPipelineOnGeneratedDesign(t *testing.T) {
	g0, err := gen.Generate(gen.Spec{Family: gen.SHA3, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := firrtl.Emit(g0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := firrtl.ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	ten, opt, err := oim.Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	const cycles = 3
	oracle, err := dfg.NewInterp(opt)
	if err != nil {
		t.Fatal(err)
	}
	runOracle := func(seed int64) []uint64 {
		oracle.Reset()
		rng := rand.New(rand.NewSource(seed))
		var tr []uint64
		for c := 0; c < cycles; c++ {
			for i, p := range opt.Inputs {
				oracle.PokeInput(i, rng.Uint64()&opt.Node(p.Node).Mask())
			}
			oracle.Step()
			tr = append(tr, oracle.RegSnapshot()...)
		}
		return tr
	}
	want := runOracle(11)

	check := func(name string, got []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: trace length %d, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: trace[%d] = %d, oracle %d", name, i, got[i], want[i])
			}
		}
	}

	// Every kernel over the tensor.
	for _, kind := range kernel.Kinds() {
		e, err := newEngine(ten, kernel.Config{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		var tr []uint64
		for c := 0; c < cycles; c++ {
			for i := range ten.InputSlots {
				pokeInput(e, i, rng.Uint64())
			}
			e.Step()
			tr = append(tr, regsOf(e)...)
		}
		check(kind.String(), tr)
	}

	// Both baselines.
	for _, style := range []baseline.Style{baseline.Verilator, baseline.Essent} {
		sim, err := baseline.New(opt, style)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		var tr []uint64
		for c := 0; c < cycles; c++ {
			for i, p := range opt.Inputs {
				sim.PokeInput(i, rng.Uint64()&opt.Node(p.Node).Mask())
			}
			sim.Step()
			tr = append(tr, sim.RegSnapshot()...)
		}
		check(style.String(), tr)
	}

	// RepCut with 3 partitions, through the plan → lower → instantiate split.
	{
		plan, err := repcut.NewPlan(ten, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := plan.Lower(kernel.Config{Kind: kernel.PSU})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := plan.Instantiate(progs)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		rng := rand.New(rand.NewSource(11))
		var tr []uint64
		for c := 0; c < cycles; c++ {
			for i := range ten.InputSlots {
				pokeInput(pc, i, rng.Uint64()&ten.Masks[ten.InputSlots[i]])
			}
			pc.Step()
			tr = append(tr, regsOf(pc)...)
		}
		check("repcut", tr)
	}
}

// TestPublicAPIAcrossKernels drives the public sim facade over a
// handwritten design and checks kernel-independence of results.
func TestPublicAPIAcrossKernels(t *testing.T) {
	const src = `
circuit Gray :
  module Gray :
    input clock : Clock
    output gray : UInt<8>
    reg c : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    gray <= xor(c, shr(c, 1))
`
	var want []uint64
	for _, kind := range sim.Kernels() {
		d, err := sim.Compile(src, sim.WithKernel(kind))
		if err != nil {
			t.Fatal(err)
		}
		s := d.NewSession()
		var got []uint64
		for i := 0; i < 20; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			v, err := s.Peek("gray")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		}
		if want == nil {
			want = got
			// Gray-code property: successive values differ in one bit.
			for i := 1; i < len(got); i++ {
				d := got[i] ^ got[i-1]
				if d == 0 || d&(d-1) != 0 {
					t.Fatalf("not a gray sequence at %d: %x -> %x", i, got[i-1], got[i])
				}
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v diverges from %v at cycle %d", kind, sim.RU, i)
			}
		}
	}
}
