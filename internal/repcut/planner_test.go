package repcut

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

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

// walk is the fan-in cone of roots one slot at a time, breadth first: its
// slots, roots included, each once. An op's output expands through its
// operands, and sources — primary inputs, constants, register Qs — end the
// walk. It is the oracle fanIn.sweep is held to.
func walk(f *fanIn, roots ...int32) []int32 {
	seen := make([]bool, len(f.producer))
	var out []int32
	for _, s := range roots {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for i := 0; i < len(out); i++ {
		if id := f.producer[out[i]]; id >= 0 {
			for _, arg := range f.args[id] {
				if !seen[arg] {
					seen[arg] = true
					out = append(out, arg)
				}
			}
		}
	}
	return out
}

// walkLabels is fanIn.sweep one root at a time: each root's walked cone
// adds its label to the ops it holds and the registers whose Q it reads.
func walkLabels(f *fanIn, roots []int32, label []int, labels int) *labelSets {
	w := (labels + 63) / 64
	ls := &labelSets{words: w, held: make([]uint64, len(f.args)*w), read: make([]uint64, len(f.next)*w)}
	for i, root := range roots {
		l := i
		if label != nil {
			l = label[i]
		}
		for _, s := range walk(f, root) {
			if q := f.regOf[s]; q >= 0 {
				ls.reg(int(q)).set(l)
			} else if id := f.producer[s]; id >= 0 {
				ls.op(int(id)).set(l)
			}
		}
	}
	return ls
}

// walkedCones is the analysis one register at a time, over operations: a
// walk from each register's Next, ops into the cone and register Qs into
// regSrc — the oracle analyze's one sweep and its classes must equal.
type walkedCones struct {
	ops    int
	cones  []bitset // per register: op-index members of the fan-in cone
	regSrc [][]int
}

func coneWalk(t *oim.Tensor, f *fanIn) walkedCones {
	w := walkedCones{ops: len(f.args), cones: make([]bitset, len(t.RegSlots)), regSrc: make([][]int, len(t.RegSlots))}
	for ri, r := range t.RegSlots {
		w.cones[ri] = newBitset(w.ops)
		for _, s := range walk(f, r.Next) {
			if si := f.regOf[s]; si >= 0 {
				w.regSrc[ri] = append(w.regSrc[ri], int(si))
			} else if id := f.producer[s]; id >= 0 {
				w.cones[ri].set(int(id))
			}
		}
		slices.Sort(w.regSrc[ri])
	}
	return w
}

// list is a bitset's members in ascending order.
func list(b bitset) []int {
	var l []int
	b.forEachBit(func(i int) { l = append(l, i) })
	return l
}

// members counts a bitset's members.
func members(b bitset) int { return len(list(b)) }

// weighOps sums the weights of a class bitset's classes: the operations
// they stand for, counted without interOps.
func weighOps(a *analysis, b bitset) int {
	n := 0
	b.forEachBit(func(c int) { n += int(a.weight[c]) })
	return n
}

// checkClasses holds the class analysis to the walked cones expanded back to
// operations: two ops share a class exactly when their walked label sets
// (the registers whose walked cones hold them) are equal, an op in no cone
// has no class, each class weighs its ops, the weights ascend and a uniform
// word's weight is its classes', each cone's classes are exactly its walked
// ops' and weigh its walked op count, and regSrc is the walk's.
func checkClasses(a *analysis, w walkedCones) error {
	if a.numOps != w.ops || len(a.class) != w.ops || len(a.cones) != len(w.cones) {
		return fmt.Errorf("%d ops (%d classed), %d registers; the walk has %d, %d", a.numOps, len(a.class), len(a.cones), w.ops, len(w.cones))
	}
	labels := make([]bitset, a.numOps)
	for op := range labels {
		labels[op] = newBitset(len(w.cones))
	}
	for ri, cone := range w.cones {
		cone.forEachBit(func(op int) { labels[op].set(ri) })
	}
	classOf := map[string]int32{}
	setOf := map[int32]string{}
	weight := make([]int32, len(a.weight))
	for op, set := range labels {
		c, key := a.class[op], fmt.Sprint(set)
		if set.empty() != (c < 0) {
			return fmt.Errorf("op %d is in %d walked cones but in class %d", op, members(set), c)
		}
		if c < 0 {
			continue
		}
		weight[c]++
		if prev, ok := classOf[key]; ok && prev != c {
			return fmt.Errorf("ops of one walked label set are in classes %d and %d", prev, c)
		}
		if prev, ok := setOf[c]; ok && prev != key {
			return fmt.Errorf("class %d holds ops of two walked label sets", c)
		}
		classOf[key], setOf[c] = c, key
	}
	if !slices.Equal(weight, a.weight) || !slices.IsSorted(a.weight) {
		return fmt.Errorf("class weights %v, the classes' op counts %v", a.weight, weight)
	}
	for i, ww := range a.wordW {
		for c := i * 64; ww > 0 && c < min(i*64+64, len(a.weight)); c++ {
			if a.weight[c] != ww {
				return fmt.Errorf("word %d weighs %d but class %d weighs %d", i, ww, c, a.weight[c])
			}
		}
	}
	for ri, cone := range w.cones {
		ops := newBitset(a.numOps)
		for op, c := range a.class {
			if c >= 0 && a.cones[ri].has(int(c)) {
				ops.set(op)
			}
		}
		if !slices.Equal(ops, cone) || a.coneOps[ri] != members(cone) || weighOps(a, a.cones[ri]) != members(cone) {
			return fmt.Errorf("register %d's cone has %d ops (classes weighing %d), the walk's %d", ri, a.coneOps[ri], weighOps(a, a.cones[ri]), members(cone))
		}
		if got := list(a.regSrc[ri]); !slices.Equal(got, w.regSrc[ri]) {
			return fmt.Errorf("register %d reads %v, the walk %v", ri, got, w.regSrc[ri])
		}
	}
	return nil
}

// cornerGraph has 70 registers — two register words, the second partly
// used — whose next states cover the sources a cone can stop at: register
// 0 holds its own Q, register 1 takes register 0's Q, register 2 an input
// and register 3 a constant; the rest read chains of shared logic.
func cornerGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "corners"}
	in := g.AddInput("in", 16)
	k := g.AddConst(5, 16)
	regs := make([]dfg.NodeID, 70)
	for i := range regs {
		regs[i] = g.AddReg(fmt.Sprintf("r%d", i), 16, uint64(i))
	}
	g.SetRegNext(regs[0], regs[0])
	g.SetRegNext(regs[1], regs[0])
	g.SetRegNext(regs[2], in)
	g.SetRegNext(regs[3], k)
	acc := g.AddOp(wire.Add, 16, in, k)
	for i := 4; i < len(regs); i++ {
		acc = g.AddOp(wire.Xor, 16, acc, regs[i-1])
		g.SetRegNext(regs[i], g.AddOp(wire.Add, 16, acc, regs[(i*7)%len(regs)]))
	}
	g.AddOutput("o", acc)
	return g
}

// regFreeGraph is combinational logic from an input to an output, with no
// register at all.
func regFreeGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "comb"}
	in := g.AddInput("in", 8)
	g.AddOutput("o", g.AddOp(wire.Not, 8, g.AddOp(wire.Add, 8, in, in)))
	return g
}

// TestAnalyzeFanInCones pins the sweep down. On the handcrafted pair design
// the two pairs have disjoint cones and each register's cone reads exactly
// the Q coordinates of its own pair; and on every design — the pairs,
// corner cases, random graphs and generated SoCs — the one-sweep analysis
// equals the per-register cone walk expanded back from classes to ops (see
// checkClasses: the same cones, cone sizes and classes, and the same sorted,
// duplicate-free regSrc), and the sweep under NewPlan's two
// other labellings — each output by its index, and every register Next and
// output by a partition — equals the same labelling walked root by root.
func TestAnalyzeFanInCones(t *testing.T) {
	ten := compile(t, chainPairGraph())
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
		if got := list(a.regSrc[ri]); !slices.Equal(got, want) {
			t.Fatalf("regSrc[%d] = %v, want %v", ri, got, want)
		}
	}
	if n := a.interOps(a.cones[0], a.cones[2]); n != 0 {
		t.Fatalf("pair cones overlap in %d ops", n)
	}
	if n := a.interOps(a.cones[0], a.cones[1]); n == 0 {
		t.Fatal("registers of one pair share no logic")
	}

	corners := build(t, cornerGraph())
	rs := corners.RegSlots
	if rs[0].Next != rs[0].Q || rs[1].Next != rs[0].Q {
		t.Fatal("corner design: registers 0 and 1 do not read register 0's Q as their next state")
	}
	if rs[2].Next != corners.InputSlots[0] || !slices.ContainsFunc(corners.ConstSlots, func(c dfg.SlotInit) bool { return c.Slot == rs[3].Next }) {
		t.Fatal("corner design: registers 2 and 3 do not take an input and a constant")
	}
	type row struct {
		name string
		ten  *oim.Tensor
	}
	rows := []row{
		{"pairs", ten},
		{"corners", corners},
		{"no registers", build(t, regFreeGraph())},
	}
	rng := rand.New(rand.NewSource(3))
	for trial, regs := range []int{1, 11, 64, 97} {
		g := dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 3, Regs: regs, Ops: 150 + 67*trial, Consts: 3, MaxWidth: 16, MuxBias: 0.3})
		rows = append(rows,
			row{fmt.Sprintf("random %d regs", regs), build(t, g)},
			row{fmt.Sprintf("random %d regs optimised", regs), compile(t, g)})
	}
	for _, spec := range []gen.Spec{
		{Family: gen.SHA3, Scale: 8},
		{Family: gen.Rocket, Cores: 4, Scale: 8},
		{Family: gen.Ctrl, Cores: 512, Scale: 1},
	} {
		rows = append(rows, row{fmt.Sprintf("%s/%d", spec.Name(), spec.Scale), buildSpec(t, spec)})
	}
	for _, row := range rows {
		got := analyze(row.ten, newFanIn(row.ten))
		if err := checkClasses(got, coneWalk(row.ten, newFanIn(row.ten))); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		f, ten := newFanIn(row.ten), row.ten
		outs := len(ten.OutputSlots)
		if got, want := f.sweep(ten.OutputSlots, nil, outs), walkLabels(f, ten.OutputSlots, nil, outs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the output labelling differs from the walk's", row.name)
		}
		roots, label := slices.Clone(ten.OutputSlots), make([]int, outs)
		for oi := range label {
			label[oi] = oi % 3
		}
		for ri, r := range ten.RegSlots {
			roots, label = append(roots, r.Next), append(label, (ri*5)%3)
		}
		if got, want := f.sweep(roots, label, 3), walkLabels(f, roots, label, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the partition labelling differs from the walk's", row.name)
		}
		t.Logf("%-28s %5d ops %4d registers %5d classes", row.name, got.numOps, len(got.cones), len(got.weight))
	}
}

// TestSubTensorsAreWalkedCones holds NewPlan's outputs of the partition
// sweep to walks: for the planner's, a round-robin and a random owner vector
// at P ∈ {1, 2, 3, 4}, every output goes to the partition owning the
// plurality of the registers its walked cone reads (the lowest on a tie,
// oi mod P when it reads none); each sub-tensor's ops are exactly those of
// the walked cones of its owned registers' Nexts and its sampled outputs;
// and each partition pulls exactly the foreign registers whose Q those
// cones read.
func TestSubTensorsAreWalkedCones(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tensors := []*oim.Tensor{
		build(t, cornerGraph()),
		compile(t, dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 3, Regs: 23, Ops: 300, Consts: 3, MaxWidth: 16, MuxBias: 0.3})),
		buildSpec(t, gen.Spec{Family: gen.SHA3, Scale: 8}),
		buildSpec(t, gen.Spec{Family: gen.Rocket, Cores: 4, Scale: 8}),
	}
	for _, ten := range tensors {
		f, nRegs := newFanIn(ten), len(ten.RegSlots)
		for _, n := range []int{1, 2, 3, 4} {
			random := make([]int, nRegs)
			for ri := range random {
				random[ri] = rng.Intn(n)
			}
			for q, ri := range rng.Perm(nRegs)[:n] {
				random[ri] = q // no partition left empty
			}
			for name, owner := range map[string][]int{"planner": nil, "round-robin": roundRobin(ten, n), "random": random} {
				plan, err := NewPlan(ten, n, owner)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s P=%d %s", ten.Design, n, name)
				for oi, slot := range ten.OutputSlots {
					votes := make([]int, n)
					for _, s := range walk(f, slot) {
						if ri := f.regOf[s]; ri >= 0 {
							votes[plan.regOwner[ri]]++
						}
					}
					want := oi % n
					if most := slices.Max(votes); most > 0 {
						want = slices.Index(votes, most)
					}
					if plan.outOwner[oi] != want {
						t.Fatalf("%s: output %d sampled in %d, the walked vote says %d", at, oi, plan.outOwner[oi], want)
					}
				}
				for part, sub := range plan.subs {
					var roots []int32
					for ri, r := range ten.RegSlots {
						if plan.regOwner[ri] == part {
							roots = append(roots, r.Next)
						}
					}
					for oi, slot := range ten.OutputSlots {
						if plan.outOwner[oi] == part {
							roots = append(roots, slot)
						}
					}
					var wantOps []int32
					var wantPulls []int32
					for _, s := range walk(f, roots...) {
						if ri := f.regOf[s]; ri >= 0 && plan.regOwner[ri] != part {
							wantPulls = append(wantPulls, s)
						} else if f.producer[s] >= 0 {
							wantOps = append(wantOps, s)
						}
					}
					var gotOps, gotPulls []int32
					sub.Ops(func(_ int, _ uint16, out int32, _ []int32) { gotOps = append(gotOps, out) })
					for _, e := range plan.pulls[part] {
						gotPulls = append(gotPulls, e.q)
					}
					for _, s := range [][]int32{wantOps, wantPulls, gotOps, gotPulls} {
						slices.Sort(s)
					}
					if !slices.Equal(gotOps, wantOps) {
						t.Fatalf("%s: partition %d holds %d ops, its walked cones %d", at, part, len(gotOps), len(wantOps))
					}
					if !slices.Equal(gotPulls, wantPulls) {
						t.Fatalf("%s: partition %d pulls %v, its walked cones read %v", at, part, gotPulls, wantPulls)
					}
				}
			}
		}
	}
}

// TestConeClusterCoLocatesSharedLogic: at n=2 the pairs must land in
// different partitions with their partners, giving zero replication and an
// empty external read set — after the seed alone and after refinement.
func TestConeClusterCoLocatesSharedLogic(t *testing.T) {
	ten := compile(t, chainPairGraph())
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

// evalOwner computes the plan cost of an owner vector straight from the
// analysis — a partition's ops weighed class by class over the union of its
// cones — the makespan (largest partition's ops plus the registers it
// publishes and pulls) and the work (replicated ops plus cut edges) — an
// independent reference for comparing assignments without going through the
// refiner's incremental counts or NewPlan.
func evalOwner(a *analysis, owner []int, n int) (span, work int) {
	load := make([]int, n)
	for p := 0; p < n; p++ {
		union := newBitset(len(a.weight))
		for ri, o := range owner {
			if o == p {
				union.orWith(a.cones[ri])
			}
		}
		load[p] = weighOps(a, union)
		work += load[p]
	}
	for ri := range owner {
		readers := map[int]bool{}
		for rj, o := range owner {
			if o != owner[ri] && rj != ri && a.regSrc[rj].has(ri) {
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
		tensors = append(tensors, compile(t, g))
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
		ten := compile(t, g)
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

// TestTryPricesEveryMove: the refiner prices a move without making it, so
// on random designs and sha3/8 at P ∈ {2, 3}, after the seed, try(ri, p, q)
// for every register and every partition q it could move to must read
// what evalOwner reads of the owner vector with the register moved; and
// making each move keeps the counts equal to evalOwner's.
func TestTryPricesEveryMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tensors := []*oim.Tensor{buildSpec(t, gen.Spec{Family: gen.SHA3, Scale: 8})}
	for _, regs := range []int{5, 12, 40} {
		tensors = append(tensors, compile(t, dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: regs, Ops: 300, Consts: 4, MaxWidth: 16, MuxBias: 0.3})))
	}
	for _, ten := range tensors {
		a := analyze(ten, newFanIn(ten))
		for _, n := range []int{2, 3} {
			r := newRefiner(a, n)
			r.seed()
			for ri, p := range r.owner {
				for q := 0; q < n; q++ {
					if q == p {
						continue
					}
					moved := slices.Clone(r.owner)
					moved[ri] = q
					ws, ww := evalOwner(a, moved, n)
					if gs, gw := r.try(ri, p, q); gs != ws || gw != ww {
						t.Fatalf("%s n=%d: moving register %d from %d to %d priced (%d, %d), evalOwner reads (%d, %d)", ten.Design, n, ri, p, q, gs, gw, ws, ww)
					}
				}
				if q := rng.Intn(n); q != p && r.owned[p] > 1 {
					r.move(ri, p, q)
					ws, ww := evalOwner(a, r.owner, n)
					if gs, gw := r.cost(); gs != ws || gw != ww {
						t.Fatalf("%s n=%d: after moving register %d the counts read (%d, %d), evalOwner (%d, %d)", ten.Design, n, ri, gs, gw, ws, ww)
					}
				}
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
