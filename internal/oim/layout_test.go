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
// run and the runs tile the operation slots end to end.
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
			sw := ten.LowerSwizzled()
			if err := sw.Validate(ten); err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			groups := 0
			for _, n := range sw.NPayload {
				if n > 0 {
					groups++
				}
			}
			if len(sw.Runs) != groups {
				t.Fatalf("%s %s: %d runs for %d non-empty (layer, type) groups", name, variant, len(sw.Runs), groups)
			}
			next := int32(ten.NumSlots - ten.TotalOps())
			for i, r := range sw.Runs {
				if r.First != next {
					t.Fatalf("%s %s: run %d starts at s=%d, want %d", name, variant, i, r.First, next)
				}
				next += r.Count
			}
		}
	}
}
