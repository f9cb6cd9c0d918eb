package repcut

import (
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// buildOpt is build after the default optimisation passes.
func buildOpt(t *testing.T, g *dfg.Graph) *oim.Tensor {
	t.Helper()
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	return build(t, opt)
}

// chainPairGraph has two pairs of registers: a,b share one combinational
// blob and c,d share another, with nothing crossing between the pairs.
func chainPairGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "pairs"}
	in0 := g.AddInput("in0", 16)
	in1 := g.AddInput("in1", 16)
	mk := func(name string, in dfg.NodeID, init uint64) (dfg.NodeID, dfg.NodeID) {
		ra := g.AddReg(name+"0", 16, init)
		rb := g.AddReg(name+"1", 16, init+1)
		// A shared blob both registers' next-states read.
		x := g.AddOp(wire.Xor, 16, ra, rb)
		y := g.AddOp(wire.Add, 16, x, in)
		z := g.AddOp(wire.And, 16, y, x)
		g.SetRegNext(ra, g.AddOp(wire.Add, 16, z, ra))
		g.SetRegNext(rb, g.AddOp(wire.Sub, 16, z, rb))
		return ra, rb
	}
	a, _ := mk("p", in0, 1)
	c, _ := mk("q", in1, 7)
	g.AddOutput("oa", a)
	g.AddOutput("oc", c)
	return g
}

// TestAnalyzeFanInCones pins the analysis down on the handcrafted design:
// the two pairs have disjoint cones, and each register's cone reads exactly
// the Q coordinates of its own pair.
func TestAnalyzeFanInCones(t *testing.T) {
	ten := buildOpt(t, chainPairGraph())
	if len(ten.RegSlots) != 4 {
		t.Fatalf("regs = %d, want 4", len(ten.RegSlots))
	}
	a := analyze(ten, newFanIn(ten))
	for ri := 0; ri < 4; ri++ {
		if a.coneOps[ri] == 0 {
			t.Fatalf("register %d has an empty cone", ri)
		}
		// Each register reads both members of its own pair and nothing else.
		// Pair membership = same name prefix; registers are emitted in add
		// order p0,p1,q0,q1, so pairs are {0,1} and {2,3}.
		want := []int{0, 1}
		if ri >= 2 {
			want = []int{2, 3}
		}
		if !slices.Equal(a.regSrc[ri], want) {
			t.Fatalf("regSrc[%d] = %v, want %v", ri, a.regSrc[ri], want)
		}
	}
	if n := andCount(a.cones[0], a.cones[2]); n != 0 {
		t.Fatalf("pair cones overlap in %d ops", n)
	}
	if n := andCount(a.cones[0], a.cones[1]); n == 0 {
		t.Fatal("registers of one pair share no logic")
	}
}

// TestConeClusterCoLocatesSharedLogic: at n=2 the pairs must land in
// different partitions with their partners, giving zero replication and an
// empty external read set — after the seed alone and after refinement.
func TestConeClusterCoLocatesSharedLogic(t *testing.T) {
	ten := buildOpt(t, chainPairGraph())
	r := newRefiner(analyze(ten, newFanIn(ten)), 2)
	r.seed()
	for name, owner := range map[string][]int{
		"seed":    r.owner,
		"planner": planOwners(ten, newFanIn(ten), 2),
	} {
		if owner[0] != owner[1] || owner[2] != owner[3] {
			t.Fatalf("%s split a pair: %v", name, owner)
		}
		if owner[0] == owner[2] {
			t.Fatalf("%s merged both pairs into one partition: %v", name, owner)
		}
	}
}

func (b bitset) orWith(c bitset) {
	for i, w := range c {
		b[i] |= w
	}
}

// evalOwner computes the plan cost of an owner vector straight from the
// analysis — the makespan (largest partition's ops plus the registers it
// publishes and pulls) and the work (replicated ops plus cut edges) — an
// independent reference for comparing assignments without going through the
// refiner's incremental counts or NewPlan.
func evalOwner(a *analysis, owner []int, n int) (span, work int) {
	load := make([]int, n)
	for p := 0; p < n; p++ {
		union := newBitset(a.numOps)
		for ri, o := range owner {
			if o == p {
				union.orWith(a.cones[ri])
			}
		}
		load[p] = union.popcount()
		work += load[p]
	}
	for ri := range owner {
		readers := map[int]bool{}
		for rj, o := range owner {
			if o != owner[ri] && rj != ri && slices.Contains(a.regSrc[rj], ri) {
				readers[o] = true
			}
		}
		for o := range readers {
			load[o]++ // the pull
		}
		if len(readers) > 0 {
			load[owner[ri]]++ // the publish
		}
		work += len(readers)
	}
	return slices.Max(load), work
}

// TestStrategiesValidAndDeterministic is the planner-level property test:
// over random graphs and synthesised benchmark designs, the planner produces
// a total, in-range, no-partition-empty owner vector and produces it
// deterministically.
func TestStrategiesValidAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tensors []*oim.Tensor
	for trial := 0; trial < 4; trial++ {
		g := dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: 11, Ops: 200, Consts: 4, MaxWidth: 16, MuxBias: 0.3})
		tensors = append(tensors, buildOpt(t, g))
	}
	for _, spec := range []gen.Spec{
		{Family: gen.SHA3, Scale: 8},
		{Family: gen.Rocket, Cores: 1, Scale: 64},
	} {
		tensors = append(tensors, buildSpec(t, spec))
	}

	for ti, ten := range tensors {
		for _, n := range []int{1, 2, 3, 8} {
			if n > len(ten.RegSlots) {
				continue
			}
			owner := planOwners(ten, newFanIn(ten), n)
			if err := checkOwner(owner, len(ten.RegSlots), n); err != nil {
				t.Fatalf("tensor %d n=%d: %v", ti, n, err)
			}
			if again := planOwners(ten, newFanIn(ten), n); !slices.Equal(owner, again) {
				t.Fatalf("tensor %d n=%d: nondeterministic assignment", ti, n)
			}
		}
	}
}

// TestMinCutRefinementNeverHurts: on every test tensor the refined
// assignment must cost no more than its cone-cluster seed in the
// lexicographic (makespan, work) pair — refinement only applies moves that
// strictly lower it — and the refiner's incremental counts must agree with
// the cost recomputed from scratch.
func TestMinCutRefinementNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: 12, Ops: 260, Consts: 4, MaxWidth: 16, MuxBias: 0.3})
		ten := buildOpt(t, g)
		a := analyze(ten, newFanIn(ten))
		for _, n := range []int{2, 4} {
			if n > len(ten.RegSlots) {
				continue
			}
			r := newRefiner(a, n)
			r.seed()
			ss, sw := evalOwner(a, r.owner, n)
			if gs, gw := r.cost(); gs != ss || gw != sw {
				t.Fatalf("trial %d n=%d: seed counts (%d, %d), recomputed (%d, %d)", trial, n, gs, gw, ss, sw)
			}
			r.refine()
			rs, rw := evalOwner(a, r.owner, n)
			if gs, gw := r.cost(); gs != rs || gw != rw {
				t.Fatalf("trial %d n=%d: refined counts (%d, %d), recomputed (%d, %d)", trial, n, gs, gw, rs, rw)
			}
			if rs > ss || rs == ss && rw > sw {
				t.Fatalf("trial %d n=%d: refinement worsened cost (%d, %d) -> (%d, %d)",
					trial, n, ss, sw, rs, rw)
			}
			if planned := planOwners(ten, newFanIn(ten), n); !slices.Equal(planned, r.owner) {
				t.Fatalf("trial %d n=%d: the planner is not seed + refine", trial, n)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	if err := checkOwner([]int{0, 1, 0}, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkOwner([]int{0, 0, 0}, 3, 2); err == nil {
		t.Fatal("empty partition accepted")
	}
	if err := checkOwner([]int{0, 2, 1}, 3, 2); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	if err := checkOwner([]int{0, 1}, 3, 2); err == nil {
		t.Fatal("short owner vector accepted")
	}
	// More partitions than registers: emptiness is not required.
	if err := checkOwner([]int{2}, 1, 4); err != nil {
		t.Fatal(err)
	}
}
