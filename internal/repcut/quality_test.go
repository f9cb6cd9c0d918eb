package repcut

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/partition"
)

func buildSpec(t testing.TB, spec gen.Spec) *oim.Tensor {
	t.Helper()
	g, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// TestMinCutBeatsRoundRobinOnCoupledDesigns is the headline acceptance
// property of the partition-strategy layer: on the tightly coupled SoC
// benchmark designs, min-cut refinement must strictly beat the round-robin
// baseline on both replication factor and cut size at every partition count.
func TestMinCutBeatsRoundRobinOnCoupledDesigns(t *testing.T) {
	for _, spec := range []gen.Spec{
		{Family: gen.Rocket, Cores: 1, Scale: 32},
		{Family: gen.Boom, Cores: 1, Scale: 64},
	} {
		ten := buildSpec(t, spec)
		for _, n := range []int{2, 4, 8} {
			rrPlan, err := NewPlan(ten, n, partition.RoundRobin{})
			if err != nil {
				t.Fatal(err)
			}
			mcPlan, err := NewPlan(ten, n, partition.MinCut{})
			if err != nil {
				t.Fatal(err)
			}
			rr, mc := rrPlan.Stats(), mcPlan.Stats()
			if mc.ReplicationFactor >= rr.ReplicationFactor {
				t.Errorf("%s n=%d: min-cut replication %.3f !< round-robin %.3f",
					spec.Name(), n, mc.ReplicationFactor, rr.ReplicationFactor)
			}
			if mc.CutSize >= rr.CutSize {
				t.Errorf("%s n=%d: min-cut cut %d !< round-robin %d",
					spec.Name(), n, mc.CutSize, rr.CutSize)
			}
		}
	}
}

// TestEveryStrategyYieldsAValidPlan is the plan-level property test over
// synthesised benchmark designs: for every strategy and partition count
// (including requests beyond the register count), the plan has total
// ownership, no empty partition after clamping, the strategy recorded in its
// stats, and per-partition op counts between the floor every plan has (the
// owner of the largest cone computes all of it) and the whole design. How
// close to that floor the structure-aware strategies get is
// TestPlanQuality's table; there is no balance tolerance to hold them to.
func TestEveryStrategyYieldsAValidPlan(t *testing.T) {
	for _, spec := range []gen.Spec{
		{Family: gen.SHA3, Scale: 8},
		{Family: gen.Rocket, Cores: 1, Scale: 64},
	} {
		ten := buildSpec(t, spec)
		nRegs := len(ten.RegSlots)
		maxCone := partition.MaxConeOps(ten)
		for _, strat := range partition.All() {
			for _, req := range []int{1, 2, 3, 8, nRegs + 10} {
				plan, err := NewPlan(ten, req, strat)
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", spec.Name(), strat.Name(), req, err)
				}
				st := plan.Stats()
				if want := min(req, nRegs); st.Partitions != want || st.Requested != req {
					t.Fatalf("%s %s: partitions %d/%d, want %d/%d",
						spec.Name(), strat.Name(), st.Partitions, st.Requested, want, req)
				}
				if st.Strategy != strat.Name() {
					t.Fatalf("%s: stats name %q, want %q", spec.Name(), st.Strategy, strat.Name())
				}
				owned := 0
				for part, sub := range plan.SubTensors() {
					if len(sub.RegSlots) == 0 {
						t.Fatalf("%s %s n=%d: partition %d owns no registers",
							spec.Name(), strat.Name(), req, part)
					}
					owned += len(sub.RegSlots)
				}
				if owned != nRegs {
					t.Fatalf("%s %s n=%d: %d of %d registers owned",
						spec.Name(), strat.Name(), req, owned, nRegs)
				}
				if len(st.PartitionOps) != st.Partitions {
					t.Fatalf("%s %s: %d op counts for %d partitions",
						spec.Name(), strat.Name(), len(st.PartitionOps), st.Partitions)
				}
				if st.MaxPartitionOps < maxCone || st.MaxPartitionOps > st.TotalOps {
					t.Fatalf("%s %s n=%d: largest partition %d outside [max cone %d, design %d]",
						spec.Name(), strat.Name(), req, st.MaxPartitionOps, maxCone, st.TotalOps)
				}
			}
		}
	}
}

// TestEveryStrategyMatchesSequential: correctness is assignment-independent
// — the strategy only moves cost. Every strategy at P ∈ {2, 3, 8}, lowered
// for every kernel kind, steps bit-identically (registers and outputs) to the
// one-engine simulation of the same tensor, and a nil strategy plans what
// partition.Default names.
func TestEveryStrategyMatchesSequential(t *testing.T) {
	ten := buildSpec(t, gen.Spec{Family: gen.SHA3, Scale: 8})
	trace := func(e kernel.Engine) []uint64 {
		stim := rand.New(rand.NewSource(17))
		var tr []uint64
		for cyc := 0; cyc < 3; cyc++ {
			for i := range ten.InputSlots {
				e.PokeInput(i, stim.Uint64())
			}
			e.Step()
			tr = append(tr, e.RegSnapshot()...)
			for i := range ten.OutputSlots {
				tr = append(tr, e.PeekOutput(i))
			}
		}
		return tr
	}
	plan, err := NewPlan(ten, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Stats().Strategy, partition.Default().Name(); got != want {
		t.Fatalf("nil strategy planned by %q, want the default %q", got, want)
	}
	for _, kind := range kernel.Kinds() {
		ref, err := kernel.New(ten, kernel.Config{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		golden := trace(ref)
		for _, strat := range partition.All() {
			for _, n := range []int{2, 3, 8} {
				plan, err := NewPlan(ten, n, strat)
				if err != nil {
					t.Fatal(err)
				}
				progs, err := plan.Lower(kernel.Config{Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				inst, err := plan.Instantiate(progs)
				if err != nil {
					t.Fatal(err)
				}
				got := trace(inst)
				inst.Close()
				if !slices.Equal(got, golden) {
					t.Fatalf("%v with %d partitions (%s) diverges from sequential", kind, n, strat.Name())
				}
			}
		}
	}
}

// TestPlanQuality holds the default planner to a table of the benchmark
// designs at P = 2: the largest partition over the ideal share
// (MaxPartitionOps·P/TotalOps — what a lock-step cycle costs against what a
// perfect split would) may not pass the bar, and can never be under the
// floor the largest single cone sets. The bars are what the planner that
// minimised total work under a 1.5x balance cap read at 94a7a5f, with one
// exception: on r1/64 it read 1.683 by computing 745 and 765 of the design's
// 909 ops in the two partitions (replication 1.66, cut 48), which ran at
// 0.85x the plan that leaves the 770-op uncore island whole (replication
// 1.00, cut 4); an island cannot be split without copying it, so there the
// bar is the island. On r4/8 — four cores and an uncore that come apart
// cleanly — the plan must also be a clean one. P = 4 is logged, not held.
func TestPlanQuality(t *testing.T) {
	for _, tc := range []struct {
		spec        gen.Spec
		bar, maxRep float64
	}{
		{gen.Spec{Family: gen.Rocket, Cores: 4, Scale: 8}, 1.10, 1.05},
		{gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8}, 1.670, 0},
		{gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 64}, 1.695, 0},
		{gen.Spec{Family: gen.Rocket, Cores: 2, Scale: 16}, 1.374, 0},
		{gen.Spec{Family: gen.Boom, Cores: 1, Scale: 16}, 1.441, 0},
		{gen.Spec{Family: gen.SHA3, Scale: 8}, 1.643, 0},
		{gen.Spec{Family: gen.Ctrl, Cores: 512, Scale: 1}, 1.777, 0},
	} {
		ten := buildSpec(t, tc.spec)
		name := fmt.Sprintf("%s/%d", tc.spec.Name(), tc.spec.Scale)
		for _, n := range []int{2, 4} {
			plan, err := NewPlan(ten, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := plan.Stats()
			ratio := float64(st.MaxPartitionOps*n) / float64(st.TotalOps)
			t.Logf("%-8s P=%d: max/ideal %.3f, replication %.3f, cut %d, partitions %v",
				name, n, ratio, st.ReplicationFactor, st.CutSize, st.PartitionOps)
			if n != 2 {
				continue
			}
			// 0.0005: the bars are the parent's readings to three decimals.
			if ratio > tc.bar+0.0005 {
				t.Errorf("%s: max/ideal %.3f, want at most %.3f", name, ratio, tc.bar)
			}
			if floor := float64(partition.MaxConeOps(ten)*n) / float64(st.TotalOps); ratio < floor {
				t.Errorf("%s: max/ideal %.3f is under the largest cone's floor %.3f", name, ratio, floor)
			}
			if tc.maxRep > 0 && st.ReplicationFactor > tc.maxRep {
				t.Errorf("%s: replication %.3f, want at most %.2f", name, st.ReplicationFactor, tc.maxRep)
			}
		}
	}
}
