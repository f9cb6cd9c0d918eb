package repcut

import (
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/testbench"
	"rteaal/internal/wire"
)

func build(t *testing.T, g *dfg.Graph) *oim.Tensor {
	t.Helper()
	lv, err := dfg.Levelize(g)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// newEngine lowers t for cfg and mints one unpartitioned engine.
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

// instantiate runs the full plan → lower → instantiate path.
func instantiate(t *testing.T, ten *oim.Tensor, parts int, kind kernel.Kind) (*Plan, *Instance) {
	t.Helper()
	plan, err := NewPlan(ten, parts, nil)
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
	t.Cleanup(inst.Close)
	return plan, inst
}

// TestRepCutMatchesSequential is the headline property: partitioned
// parallel simulation with register synchronisation must be bit-identical
// to the single-engine simulation for any partition count.
func TestRepCutMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: 9, Ops: 120, Consts: 5, MaxWidth: 16, MuxBias: 0.3})
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := build(t, opt)
		ref, err := newEngine(ten, kernel.Config{Kind: kernel.PSU})
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{1, 2, 3, 4} {
			plan, pc := instantiate(t, ten, parts, kernel.PSU)
			if n := plan.Stats().Partitions; n != parts {
				t.Fatalf("partitions = %d", n)
			}
			ref.Reset()
			stim := rand.New(rand.NewSource(int64(trial)))
			for cyc := 0; cyc < 12; cyc++ {
				for i := range ten.InputSlots {
					v := stim.Uint64()
					pokeInput(ref, i, v)
					pokeInput(pc, i, v)
				}
				ref.Step()
				pc.Step()
				rr, pr := regsOf(ref), regsOf(pc)
				for i := range rr {
					if rr[i] != pr[i] {
						t.Fatalf("trial %d parts %d cycle %d: reg %d = %d, want %d",
							trial, parts, cyc, i, pr[i], rr[i])
					}
				}
				for i := range ten.OutputSlots {
					if ref.PeekOutput(i) != pc.PeekOutput(i) {
						t.Fatalf("trial %d parts %d cycle %d: output %d diverges",
							trial, parts, cyc, i)
					}
				}
			}
			pc.Reset()
			st := plan.Stats()
			if st.ReplicationFactor < 1.0 && ten.TotalOps() > 0 && parts > 1 {
				t.Fatalf("replication factor %.2f < 1", st.ReplicationFactor)
			}
		}
	}
}

// TestInstancesShareAPlan proves the compile-once split: one plan lowered
// once backs several concurrently stepped instances with no shared state.
func TestInstancesShareAPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	ten := build(t, opt)
	plan, err := NewPlan(ten, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := plan.Lower(kernel.Config{Kind: kernel.TI})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Instance {
		in, err := plan.Instantiate(progs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(in.Close)
		return in
	}
	a, b := mk(), mk()
	done := make(chan []uint64, 2)
	for seed, in := range map[int64]*Instance{1: a, 2: b} {
		go func(seed int64, in *Instance) {
			stim := rand.New(rand.NewSource(seed))
			for cyc := 0; cyc < 20; cyc++ {
				for i := range ten.InputSlots {
					pokeInput(in, i, stim.Uint64())
				}
				in.Step()
			}
			done <- regsOf(in)
		}(seed, in)
	}
	<-done
	<-done
	// Replaying instance a's stimulus on a fresh instance must reproduce it.
	c := mk()
	stim := rand.New(rand.NewSource(1))
	for cyc := 0; cyc < 20; cyc++ {
		for i := range ten.InputSlots {
			pokeInput(c, i, stim.Uint64())
		}
		c.Step()
	}
	if !slices.Equal(regsOf(a), regsOf(c)) {
		t.Fatal("two instances of one plan interfered with each other")
	}
}

func TestReplicationGrowsWithPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dfg.RandomGraph(rng, dfg.RandomParams{
		Inputs: 4, Regs: 12, Ops: 300, Consts: 5, MaxWidth: 16, MuxBias: 0.25})
	// DCE first so every remaining op is live; replication is then
	// measured against genuinely needed logic.
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	ten := build(t, opt)
	// Monotone growth is a property of the structure-blind baseline; the
	// planner exists precisely to bend this curve down.
	prev := 0.0
	for _, parts := range []int{1, 2, 4, 8} {
		plan, err := NewPlan(ten, parts, roundRobin(ten, parts))
		if err != nil {
			t.Fatal(err)
		}
		st := plan.Stats()
		if st.ReplicationFactor < prev {
			t.Fatalf("replication factor decreased: %f -> %f at %d parts",
				prev, st.ReplicationFactor, parts)
		}
		if st.ReplicatedOps < st.TotalOps && parts == 1 {
			t.Fatalf("1-way plan dropped ops: %d < %d", st.ReplicatedOps, st.TotalOps)
		}
		if st.MinPartitionOps > st.MaxPartitionOps {
			t.Fatalf("min ops %d > max ops %d", st.MinPartitionOps, st.MaxPartitionOps)
		}
		prev = st.ReplicationFactor
	}
	if prev <= 1.0 {
		t.Fatalf("8-way partitioning should replicate some logic, factor=%f", prev)
	}
}

// TestRejectsZeroPartitions: a partition count under one, and an explicit
// owner vector that is malformed against the (clamped) count, are errors,
// not panics.
func TestRejectsZeroPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
	ten := build(t, g)
	nRegs := len(ten.RegSlots)
	if nRegs < 2 {
		t.Fatalf("generator produced %d registers, want at least 2", nRegs)
	}
	outOfRange := roundRobin(ten, 2)
	outOfRange[0] = 2
	beyondClamp := roundRobin(ten, nRegs)
	beyondClamp[0] = nRegs // in range of the request, not of the clamped count
	for _, tc := range []struct {
		name  string
		n     int
		owner []int
	}{
		{"zero partitions", 0, nil},
		{"negative partitions", -3, nil},
		{"owner vector of the wrong length", 2, roundRobin(ten, 2)[1:]},
		{"owner outside [0, n)", 2, outOfRange},
		{"empty partition", 2, make([]int, nRegs)},
		{"owner outside the clamped count", nRegs + 2, beyondClamp},
	} {
		if _, err := NewPlan(ten, tc.n, tc.owner); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
	}
}

// TestClampsPartitionsToRegisters: asking for more partitions than there
// are registers must not build empty partitions that spin workers with no
// work — the count is clamped and reported.
func TestClampsPartitionsToRegisters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := dfg.RandomGraph(rng, dfg.RandomParams{
		Inputs: 3, Regs: 3, Ops: 40, Consts: 2, MaxWidth: 8})
	ten := build(t, g)
	nRegs := len(ten.RegSlots)
	if nRegs == 0 {
		t.Skip("generator produced no registers")
	}
	plan, err := NewPlan(ten, nRegs+5, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if len(plan.subs) != nRegs || st.Partitions != nRegs {
		t.Fatalf("partitions = %d, want clamp to %d registers", st.Partitions, nRegs)
	}
	if st.Requested != nRegs+5 {
		t.Fatalf("requested = %d, want %d", st.Requested, nRegs+5)
	}
	for part, sub := range plan.subs {
		if len(sub.RegSlots) == 0 {
			t.Fatalf("partition %d owns no registers", part)
		}
	}
}

// splitGraph builds two fully independent register chains so partition 0
// (reg a, output oa) and partition 1 (reg b, output ob) share nothing. If
// coupled, reg b additionally reads reg a.
func splitGraph(coupled bool) *dfg.Graph {
	g := &dfg.Graph{Name: "split"}
	in0 := g.AddInput("in0", 8)
	in1 := g.AddInput("in1", 8)
	ra := g.AddReg("ra", 8, 1)
	rb := g.AddReg("rb", 8, 2)
	g.SetRegNext(ra, g.AddOp(wire.Add, 8, ra, in0))
	if coupled {
		g.SetRegNext(rb, g.AddOp(wire.Add, 8, rb, ra))
	} else {
		g.SetRegNext(rb, g.AddOp(wire.Add, 8, rb, in1))
	}
	g.AddOutput("oa", ra)
	g.AddOutput("ob", rb)
	return g
}

// readersOf lists, ascending, the partitions that pull register ri's
// committed value after every cycle: register ri's row of the RUM.
func readersOf(p *Plan, ri int) []int {
	var rs []int
	q := p.t.RegSlots[ri].Q
	for part, pulls := range p.pulls {
		if slices.ContainsFunc(pulls, func(e xchgEntry) bool { return e.q == q }) {
			rs = append(rs, part)
		}
	}
	return rs
}

// TestDifferentialRUMReaderLists is the Box 1 property, checked exactly on
// a handcrafted design: a register is propagated to a partition if and only
// if that partition's cone reads it.
func TestDifferentialRUMReaderLists(t *testing.T) {
	// Independent halves: no register crosses the cut at all.
	plan, err := NewPlan(build(t, splitGraph(false)), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range plan.t.RegSlots {
		if rs := readersOf(plan, ri); len(rs) != 0 {
			t.Fatalf("independent design: reg %d has readers %v, want none", ri, rs)
		}
	}
	if st := plan.Stats(); st.CutSize != 0 {
		t.Fatalf("independent design: cut size %d, want 0", st.CutSize)
	}

	// Coupled: partition 1 (owner of rb) reads ra, and nothing else crosses.
	plan, err = NewPlan(build(t, splitGraph(true)), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := readersOf(plan, 0); !slices.Equal(got, []int{1}) {
		t.Fatalf("readers(ra) = %v, want [1]", got)
	}
	if got := readersOf(plan, 1); len(got) != 0 {
		t.Fatalf("readers(rb) = %v, want none", got)
	}
	if st := plan.Stats(); st.CutSize != 1 {
		t.Fatalf("coupled design: cut size %d, want 1", st.CutSize)
	}
}

// TestRUMReadersMatchConeMembership checks the same property as an
// invariant over random designs: for every register and partition, the
// partition appears in the reader list exactly when its sub-tensor
// references the register's Q coordinate (as an operand, a committed
// next-state source, or a sampled output).
func TestRUMReadersMatchConeMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		g := dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: 10, Ops: 150, Consts: 4, MaxWidth: 16, MuxBias: 0.3})
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := build(t, opt)
		plan, err := NewPlan(ten, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for part, sub := range plan.subs {
			refs := make(map[int32]bool)
			if err := sub.Validate(); err != nil {
				t.Fatalf("trial %d partition %d: %v", trial, part, err)
			}
			for _, a := range sub.RCoord {
				refs[a] = true
			}
			for _, r := range sub.RegSlots {
				refs[r.Next] = true
			}
			for oi, slot := range sub.OutputSlots {
				if plan.outOwner[oi] == part {
					refs[slot] = true
				}
			}
			for ri, r := range ten.RegSlots {
				isReader := slices.Contains(readersOf(plan, ri), part)
				reads := refs[r.Q]
				if part == plan.regOwner[ri] {
					if isReader {
						t.Fatalf("trial %d: owner %d listed as reader of reg %d", trial, part, ri)
					}
					continue
				}
				if isReader != reads {
					t.Fatalf("trial %d: partition %d reader=%v but cone-reads=%v for reg %d",
						trial, part, isReader, reads, ri)
				}
			}
		}
	}
}

// TestInstantiateRejectsForeignPrograms guards the plan/program pairing.
func TestInstantiateRejectsForeignPrograms(t *testing.T) {
	ten := build(t, splitGraph(true))
	plan, err := NewPlan(ten, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := plan.Lower(kernel.Config{Kind: kernel.PSU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Instantiate(progs[:1]); err == nil {
		t.Fatal("short program list accepted")
	}
	other, err := NewPlan(ten, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherProgs, err := other.Lower(kernel.Config{Kind: kernel.PSU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Instantiate(otherProgs); err == nil {
		t.Fatal("programs from a different plan accepted")
	}
}

// TestPokesBroadcastToEveryPartition checks that a host write reaches every
// partition's engine, whichever cones read the coordinate: a poke through
// [Instance.PokeSlot] of every input — one no cone reads included — and of
// every register Q reads back through PeekSlot and lands in every engine,
// and a run's stimulus drives every input in every engine too.
func TestPokesBroadcastToEveryPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := dfg.RandomGraph(rng, dfg.RandomParams{
		Inputs: 5, Regs: 8, Ops: 90, Consts: 4, MaxWidth: 16, MuxBias: 0.3})
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt.AddInput("unread", 16)
	ten := build(t, opt)
	plan, inst := instantiate(t, ten, 3, kernel.PSU)
	if n := plan.Stats().Partitions; n != 3 {
		t.Fatalf("partitions = %d, want 3", n)
	}
	unread := ten.InputSlots[slices.Index(ten.InputNames, "unread")]
	for part, sub := range plan.subs {
		if slices.Contains(sub.RCoord, unread) {
			t.Fatalf("partition %d reads the unread input", part)
		}
	}

	slots := slices.Clone(ten.InputSlots)
	for _, r := range ten.RegSlots {
		slots = append(slots, r.Q)
	}
	for k, slot := range slots {
		v := 0xABCD + uint64(k)
		inst.PokeSlot(slot, v)
		want := v & ten.Masks[slot]
		if got := inst.PeekSlot(slot); got != want {
			t.Fatalf("slot %d: poked %#x, peeked %#x", slot, want, got)
		}
		for part, eng := range inst.engines {
			if got := eng.PeekSlot(slot); got != want {
				t.Fatalf("slot %d: poked %#x, partition %d holds %#x", slot, want, part, got)
			}
		}
	}

	stim := testbench.Func(func(cycle int64, _, input int) uint64 { return uint64(cycle)<<8 | uint64(input) })
	inst.RunBulk(kernel.RunSpec{Cycles: 1, Stim: stim, From: 5})
	for i, slot := range ten.InputSlots {
		want := (5<<8 | uint64(i)) & ten.Masks[slot]
		for part, eng := range inst.engines {
			if got := eng.PeekSlot(slot); got != want {
				t.Fatalf("input %d: stimulus drove %#x, partition %d holds %#x", i, want, part, got)
			}
		}
	}
}

// TestRoutedPokeMatchesSequential drives random per-cycle input pokes plus
// occasional register rewrites through a partitioned instance and the
// scalar engine and requires identical traces — the regression test for
// pokes being dropped (or starved) in a partition that reads them.
func TestRoutedPokeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := dfg.RandomGraph(rng, dfg.RandomParams{
		Inputs: 4, Regs: 6, Ops: 80, Consts: 4, MaxWidth: 16, MuxBias: 0.25})
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	ten := build(t, opt)
	ref, err := newEngine(ten, kernel.Config{Kind: kernel.PSU})
	if err != nil {
		t.Fatal(err)
	}
	_, inst := instantiate(t, ten, 3, kernel.PSU)

	stimRng := rand.New(rand.NewSource(5))
	for c := 0; c < 40; c++ {
		for i := range ten.InputSlots {
			v := stimRng.Uint64()
			pokeInput(ref, i, v)
			pokeInput(inst, i, v)
		}
		if c%7 == 3 {
			for _, r := range ten.RegSlots {
				v := stimRng.Uint64()
				ref.PokeSlot(r.Q, v)
				inst.PokeSlot(r.Q, v)
			}
		}
		ref.Step()
		inst.Step()
		if !slices.Equal(regsOf(ref), regsOf(inst)) {
			t.Fatalf("cycle %d: register state diverged", c)
		}
		for oi := range ten.OutputSlots {
			if ref.PeekOutput(oi) != inst.PeekOutput(oi) {
				t.Fatalf("cycle %d: output %d diverged", c, oi)
			}
		}
	}
}
