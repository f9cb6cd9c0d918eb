package oim_test

import (
	"fmt"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/difftest"
	"rteaal/internal/gen"
	"rteaal/internal/oim"
)

// TestBuildLayoutIsSContiguous is the layout invariant the swizzled kernels
// are built on: for every tensor oim.Build produces — the generated design
// families and every random-graph profile the fuzzer draws from, before and
// after optimisation — the [I,N,S,O,R] traversal visits S in ascending,
// consecutive order, so each non-empty (layer, type) group is exactly one
// run and the runs tile the operation slots end to end. The tensor is the
// only copy of the circuit, so the same walk holds it, operation for
// operation, to the levelized graph it was built from.
func TestBuildLayoutIsSContiguous(t *testing.T) {
	graphs := map[string]*dfg.Graph{}
	for _, s := range []gen.Spec{
		{Family: gen.Rocket, Cores: 1, Scale: 16},
		{Family: gen.Rocket, Cores: 4, Scale: 32},
		{Family: gen.Boom, Cores: 1, Scale: 16},
		{Family: gen.Gemmini, Cores: 8, Scale: 8},
		{Family: gen.SHA3, Scale: 8},
		{Family: gen.Ctrl, Cores: 256, Scale: 4},
	} {
		g, err := gen.Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		graphs[s.Name()] = g
	}
	for _, prof := range difftest.Profiles() {
		for seed := int64(1); seed <= 4; seed++ {
			graphs[fmt.Sprintf("%s/%d", prof.Name, seed)] = difftest.NewCase(seed, prof, 1, 1).Graph
		}
	}
	for name, g := range graphs {
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for variant, g := range map[string]*dfg.Graph{"raw": g, "optimized": opt} {
			lv, err := dfg.Levelize(g)
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			ten, err := oim.Build(lv)
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			if err := ten.Validate(); err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			var want []dfg.NodeID // the levelized graph's operations, in layer order
			for _, layer := range lv.Layers {
				want = append(want, layer...)
			}
			if ten.NumLayers() != lv.NumLayers || ten.TotalOps() != len(want) {
				t.Fatalf("%s %s: %d ops in %d layers, levelized graph has %d in %d",
					name, variant, ten.TotalOps(), ten.NumLayers(), len(want), lv.NumLayers)
			}
			k := 0
			ten.Ops(func(layer int, sig uint16, out int32, args []int32) {
				n := g.Node(want[k])
				ok := int(lv.LevelOf[want[k]]) == layer && out == lv.Slot[want[k]] &&
					ten.OpTable[sig] == oim.OpSig{Op: n.Op, Arity: uint8(len(n.Args))}
				for o := 0; ok && o < len(n.Args); o++ {
					ok = args[o] == lv.Slot[n.Args[o]]
				}
				if !ok {
					t.Fatalf("%s %s: op %d is (layer %d, %v, s=%d, r=%v), want node %d (%v of %v in layer %d at s=%d)",
						name, variant, k, layer, ten.OpTable[sig], out, args, want[k], n.Op, n.Args, lv.LevelOf[want[k]], lv.Slot[want[k]])
				}
				k++
			})
			groups := 0
			for _, n := range ten.NPayload() {
				if n > 0 {
					groups++
				}
			}
			if len(ten.Runs) != groups {
				t.Fatalf("%s %s: %d runs for %d non-empty (layer, type) groups", name, variant, len(ten.Runs), groups)
			}
			next := int32(ten.NumSlots - ten.TotalOps())
			for i, r := range ten.Runs {
				if r.First != next {
					t.Fatalf("%s %s: run %d starts at s=%d, want %d", name, variant, i, r.First, next)
				}
				next += r.Count
			}
		}
	}
}
