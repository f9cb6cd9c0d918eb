package repcut

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
)

// multiRunGroups counts the (layer, type) groups of a tensor that take more
// than one run, i.e. whose S coordinates are not consecutive.
func multiRunGroups(t *oim.Tensor) int {
	multi, ru := 0, 0
	for _, count := range t.NPayload() {
		runs := 0
		for left := count; left > 0; ru++ {
			left -= t.Runs[ru].Count
			runs++
		}
		if runs > 1 {
			multi++
		}
	}
	return multi
}

// TestSubTensorsLowerToMultiRunGroups is the regression test for the one
// trap of the S-contiguous LI layout: contiguity holds for the tensor
// oim.Build emits, not for the per-partition sub-tensors, which keep the
// global slot space but only their cone's operations. Those must lower to
// groups of several runs, and the swizzled kernels must walk the runs — a
// runner that takes a group's first S coordinate as the base of the whole
// group writes other partitions' slots and fails the trace comparison here.
func TestSubTensorsLowerToMultiRunGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := dfg.RandomGraph(rng, dfg.RandomParams{
		Inputs: 5, Regs: 12, Ops: 400, Consts: 6, MaxWidth: 24, MuxBias: 0.3})
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	ten := build(t, opt)
	if n := multiRunGroups(ten); n != 0 {
		t.Fatalf("full tensor has %d multi-run groups, want one run per group", n)
	}
	oracle, err := newEngine(ten, kernel.Config{Kind: kernel.TI})
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{2, 3} {
		plan, err := NewPlan(ten, parts, nil)
		if err != nil {
			t.Fatal(err)
		}
		multi := 0
		for i, sub := range plan.subs {
			if err := sub.Validate(); err != nil {
				t.Fatalf("%d-way partition %d: %v", parts, i, err)
			}
			multi += multiRunGroups(sub)
		}
		if multi == 0 {
			t.Fatalf("%d-way plan: every group of every sub-tensor is one run; the test design no longer exercises sparse S", parts)
		}
		for _, kind := range []kernel.Kind{kernel.NU, kernel.PSU, kernel.IU} {
			_, inst := instantiate(t, ten, parts, kind)
			oracle.Reset()
			stim := rand.New(rand.NewSource(5))
			for cyc := 0; cyc < 16; cyc++ {
				for i := range ten.InputSlots {
					v := stim.Uint64()
					pokeInput(oracle, i, v)
					pokeInput(inst, i, v)
				}
				oracle.Step()
				inst.Step()
				want, got := regsOf(oracle), regsOf(inst)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d-way %v cycle %d: reg %d = %#x, want %#x", parts, kind, cyc, i, got[i], want[i])
					}
				}
				for i := range ten.OutputSlots {
					if got, want := inst.PeekOutput(i), oracle.PeekOutput(i); got != want {
						t.Fatalf("%d-way %v cycle %d: output %d = %#x, want %#x", parts, kind, cyc, i, got, want)
					}
				}
			}
		}
	}
}
