package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// testBatch instantiates a batch over a tensor with the given options.
func testBatch(t *testing.T, ten *oim.Tensor, lanes int, o BatchOptions) *Batch {
	t.Helper()
	prog, err := NewProgram(ten, Config{Kind: PSU})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.InstantiateBatchWith(lanes, o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// packedBatch instantiates a bit-packed batch over a tensor.
func packedBatch(t *testing.T, ten *oim.Tensor, lanes, workers int) *Batch {
	t.Helper()
	return testBatch(t, ten, lanes, BatchOptions{Workers: workers, Packing: true})
}

// wideBatch instantiates a sequential batch over the wide schedule.
func wideBatch(t *testing.T, ten *oim.Tensor, lanes int) *Batch {
	t.Helper()
	return testBatch(t, ten, lanes, BatchOptions{})
}

// TestOneBitSlots pins the width-analysis verdicts: mask==1 classifies and
// wider masks don't. A constant preload or register init above its mask is
// not classified here: Validate rejects it (TestValidateRejectsCorruption in
// internal/oim, TestValidateCatchesErrors in internal/dfg).
func TestOneBitSlots(t *testing.T) {
	ten := &oim.Tensor{
		NumSlots:   3,
		Masks:      []uint64{1, 255, 1},
		ConstSlots: []dfg.SlotInit{{Slot: 2, Value: 1}},
	}
	got := OneBitSlots(ten)
	want := []bool{true, false, true}
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("slot %d classified %v, want %v", s, got[s], want[s])
		}
	}
}

// TestBatchPackedMatchesReference pins the bit-packed schedule to the
// scalar reference loop on random optimised circuits — the same licence the
// wide schedule earned, now covering the packed loop bodies, the
// pack/unpack shims, and the packed commit plan — and the reference loop to
// itself across layouts: run on a packed batch, it reads and writes the
// packed home rows and must trace what it traces on a wide one.
func TestBatchPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	const lanes, cycles = 5, 8
	sawPacked := false
	for trial := 0; trial < 40; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		ten := compileTensor(t, g)
		packed := packedBatch(t, ten, lanes, 1)
		sawPacked = sawPacked || packed.Packed()
		seeds := laneSeeds(lanes)
		want := batchTrace(wideBatch(t, ten, lanes), seeds, cycles, (*Batch).StepReference)
		for _, run := range []struct {
			name string
			got  [][]uint64
		}{
			{"packed", batchTrace(packed, seeds, cycles, nil)},
			{"packed StepReference", batchTrace(packedBatch(t, ten, lanes, 1), seeds, cycles, (*Batch).StepReference)},
		} {
			for lane := range want {
				for i := range want[lane] {
					if run.got[lane][i] != want[lane][i] {
						t.Fatalf("trial %d lane %d: %s diverges from reference at trace[%d]: %d != %d",
							trial, lane, run.name, i, run.got[lane][i], want[lane][i])
					}
				}
			}
		}
	}
	if !sawPacked {
		t.Fatal("no trial produced a packed batch; the corpus lost its 1-bit slots")
	}
}

// packedCrossingGraph is a hand-built design holding every layout-crossing
// shape next to the word-wide bodies the random corpus rarely produces: a
// wide comparison and wide OrR/XorR feeding packed And/Or/Xor logic, a
// packed select steering a wide mux, a single-bit constant field extract
// feeding packed logic, a packed 1-bit constant that a wide Add reads in
// place (its wide view, which Reset loads and no instruction writes), an
// all-1-bit Gt, Mux and MuxChain, and 1-bit registers committing through
// the staged plan packed on both sides (the r1→r2 shift chain), packed→wide
// (qw, demoted by its two wide muxes) and wide→packed (qp, whose Next the
// profitability pass demotes).
func packedCrossingGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "crossing"}
	a := g.AddInput("a", 8)
	b := g.AddInput("b", 8)
	s := g.AddInput("s", 1)
	u := g.AddInput("u", 1)
	r1 := g.AddReg("r1", 1, 1)
	r2 := g.AddReg("r2", 1, 0)
	qw := g.AddReg("qw", 1, 0)
	qp := g.AddReg("qp", 1, 1)
	acc := g.AddReg("acc", 8, 0)
	lt := g.AddOp(wire.Lt, 1, a, b)
	orr := g.AddOp(wire.OrR, 1, a)
	xr := g.AddOp(wire.XorR, 1, b)
	three := g.AddConst(3, 8)
	bit3 := g.AddOp(wire.Bits, 1, a, three, three)
	gt := g.AddOp(wire.Gt, 1, s, u)
	p1 := g.AddOp(wire.And, 1, lt, s)
	p2 := g.AddOp(wire.Or, 1, orr, u)
	p3 := g.AddOp(wire.Xor, 1, xr, bit3)
	p4 := g.AddOp(wire.And, 1, qp, p3)
	mx := g.AddOp(wire.Mux, 1, p1, p2, p4)
	mc := g.AddOp(wire.MuxChain, 1, s, p1, gt, p2, lt, p3, bit3)
	one := g.AddConst(1, 1)
	p5 := g.AddOp(wire.And, 1, one, u) // a word-wide use keeps the constant packed
	bump := g.AddOp(wire.Add, 8, b, one)
	neq := g.AddOp(wire.Neq, 1, a, b)
	sum := g.AddOp(wire.Add, 8, acc, g.AddOp(wire.Mux, 8, neq, a, bump))
	swap := g.AddOp(wire.Xor, 8, g.AddOp(wire.Mux, 8, qw, a, b), g.AddOp(wire.Mux, 8, qw, b, a))
	g.SetRegNext(r1, mc)
	g.SetRegNext(r2, r1) // r2.Next IS r1.Q: forces the staged commit
	g.SetRegNext(qw, p2)
	g.SetRegNext(qp, neq)
	g.SetRegNext(acc, g.AddOp(wire.Mux, 8, p1, swap, sum))
	g.AddOutput("mx", mx)
	g.AddOutput("r2", r2)
	g.AddOutput("acc", acc)
	g.AddOutput("p5", p5)
	return g
}

// TestBatchPackedWidePartialWords covers lane counts that straddle word
// boundaries (1, 63, 64, 65, 130): the partial tail word carries garbage
// bits above the lane count, which must never leak into any lane's value.
// It runs a random circuit and the directed crossing graph, whose schedule
// must hold both crossings, the packed Gt, Mux and MuxChain bodies and a
// commit with a move of every packed/wide shape, ordered for the r1→r2 chain
// — so the test cannot silently stop reaching them.
func TestBatchPackedWidePartialWords(t *testing.T) {
	rng := rand.New(rand.NewSource(6180))
	const cycles = 5
	random := compileTensor(t, dfg.RandomGraph(rng, dfg.DefaultRandomParams()))
	directed := buildTensor(t, packedCrossingGraph()) // unoptimised: keep the shapes
	sched := buildBatchSchedule(directed, true)
	seen := map[batchCode]bool{}
	for _, in := range sched.insts {
		seen[in.code] = true
	}
	for _, code := range []batchCode{bpUnpack, bpPack, bpGtW, bpMux, bpMuxChain} {
		if !seen[code] {
			t.Errorf("crossing graph's schedule lost packed opcode %d", code)
		}
	}
	commitShapes := map[[2]bool]bool{}
	for _, c := range sched.commits {
		commitShapes[[2]bool{c.qp, c.np}] = true
	}
	if len(commitShapes) != 4 {
		t.Errorf("crossing graph's commit plan: (Q packed, Next packed) move shapes %v; want all four", commitShapes)
	}
	if inOrder := slices.IsSortedFunc(sched.commits, func(a, b commitInst) int { return int(a.q - b.q) }); inOrder {
		t.Error("crossing graph's commit plan kept register order although r2 reads r1's Q")
	}
	for ti, ten := range []*oim.Tensor{random, directed} {
		for _, lanes := range []int{1, 63, 64, 65, 130} {
			packed := packedBatch(t, ten, lanes, 1)
			seeds := laneSeeds(lanes)
			got := batchTrace(packed, seeds, cycles, nil)
			want := batchTrace(wideBatch(t, ten, lanes), seeds, cycles, (*Batch).StepReference)
			for lane := range want {
				for i := range want[lane] {
					if got[lane][i] != want[lane][i] {
						t.Fatalf("design %d lanes %d lane %d: packed diverges at trace[%d]: %d != %d",
							ti, lanes, lane, i, got[lane][i], want[lane][i])
					}
				}
			}
		}
	}
}

// TestBatchPackedParallelMatchesSequential shards packed batches over lane
// splits that fall inside a 64-lane word, including worker counts above the
// word count.
func TestBatchPackedParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const cycles = 6
	for trial := 0; trial < 6; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		ten := compileTensor(t, g)
		for _, tc := range []struct{ lanes, workers int }{
			{70, 2}, {70, 3}, {130, 2}, {130, 5}, {4, 3}, {64, 2},
		} {
			seeds := laneSeeds(tc.lanes)
			seq := packedBatch(t, ten, tc.lanes, 1)
			want := batchTrace(seq, seeds, cycles, nil)
			par := packedBatch(t, ten, tc.lanes, tc.workers)
			if got, wantW := par.Workers(), min(tc.workers, tc.lanes); got != wantW {
				t.Fatalf("lanes %d workers %d: Workers() = %d, want %d",
					tc.lanes, tc.workers, got, wantW)
			}
			got := batchTrace(par, seeds, cycles, nil)
			par.Close()
			for lane := range want {
				for i := range want[lane] {
					if got[lane][i] != want[lane][i] {
						t.Fatalf("trial %d lanes %d workers %d lane %d: parallel diverges at trace[%d]: %d != %d",
							trial, tc.lanes, tc.workers, lane, i, got[lane][i], want[lane][i])
					}
				}
			}
		}
	}
}

// genTensor lowers one generated benchmark design the way sim.CompileGraph
// does.
func genTensor(t *testing.T, spec gen.Spec) *oim.Tensor {
	t.Helper()
	g, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return compileTensor(t, g)
}

// TestBatchPackedOneHomePerSlot pins the allocation rule on the control
// fabric: a packed slot owns a wide row if and only if some schedule
// instruction reads or writes its wide view, so the wide store shrinks to a
// sliver of at most one row per wide value (rows are recycled by liveness,
// so usually fewer) — and every host-side access to a packed-only slot
// still works, the reference oracle's included.
func TestBatchPackedOneHomePerSlot(t *testing.T) {
	ten := genTensor(t, gen.Spec{Family: gen.Ctrl, Cores: 16})
	const lanes = 70
	b := packedBatch(t, ten, lanes, 1)
	sched := b.sched
	boundWide := make([]bool, sched.wideRows)
	for i := range sched.insts {
		in := &sched.insts[i]
		outP, argsP := in.code.packedSides()
		if !outP {
			boundWide[in.out] = true
		}
		for _, a := range in.args(sched.ext) {
			if !argsP {
				boundWide[a] = true
			}
		}
	}
	values := 0 // the slots owning a wide row
	for slot, row := range sched.wideRow {
		packed := sched.packedRow[slot] >= 0
		want := !packed || (row >= 0 && boundWide[row])
		if got := row >= 0; got != want {
			t.Fatalf("slot %d: has a wide row = %v, want %v (packed %v)", slot, got, want, packed)
		}
		if want {
			values++
		}
	}
	if sched.wideRows > values+1 || len(b.wide) != sched.wideRows*lanes { // +1: the commit's temporary row
		t.Fatalf("wide store holds %d words in %d rows x %d lanes, want at most %d rows", len(b.wide), sched.wideRows, lanes, values+1)
	}
	if full := ten.NumSlots * lanes; len(b.wide)*10 >= full {
		t.Fatalf("wide store holds %d of %d words: the control fabric should be under 10%%", len(b.wide), full)
	}

	seeds := laneSeeds(lanes)
	first := batchTrace(b, seeds, 6, nil)
	b.Reset()
	again := batchTrace(b, seeds, 6, nil)
	for lane := range first {
		for i := range first[lane] {
			if again[lane][i] != first[lane][i] {
				t.Fatalf("lane %d: trace[%d] after Reset = %d, want %d", lane, i, again[lane][i], first[lane][i])
			}
		}
	}

	const lane = 69 // in the partial second word
	regIdx := -1    // a register whose Q has no wide row
	for i, r := range ten.RegSlots {
		if sched.wideRow[r.Q] < 0 {
			regIdx = i
		}
	}
	if regIdx < 0 {
		t.Fatal("no packed-only register in the control fabric")
	}
	packedOnly := ten.RegSlots[regIdx].Q
	for _, v := range []uint64{1, 0, 3} {
		b.PokeSlot(lane, packedOnly, v)
		if got := b.PeekSlot(lane, packedOnly); got != v&1 {
			t.Fatalf("PeekSlot after PokeSlot(%d) = %d", v, got)
		}
		if got := laneRegs(b, lane)[regIdx]; got != v&1 {
			t.Fatalf("register after PokeSlot(%d) = %d", v, got)
		}
	}
	var watched uint64
	ran, stopped := b.RunBulk(RunSpec{Cycles: 4, Watch: &Watch{
		Lane: lane, Slot: packedOnly, OutIdx: -1,
		Pred: func(v uint64) bool { watched = v; return true },
	}})
	if ran != 1 || !stopped {
		t.Fatalf("watched run: ran %d stopped %v, want 1 true", ran, stopped)
	}
	if got := b.PeekSlot(lane, packedOnly); watched != got {
		t.Fatalf("watch saw %d, PeekSlot reads %d", watched, got)
	}

	rb := packedBatch(t, ten, lanes, 1)
	ref := batchTrace(rb, seeds, 6, (*Batch).StepReference)
	for lane := range first {
		if !slices.Equal(ref[lane], first[lane]) {
			t.Fatalf("lane %d: StepReference on a packed batch traces %v, the schedule %v", lane, ref[lane], first[lane])
		}
	}
	// Like the schedule, the oracle leaves each output in its home row.
	q := map[int32]bool{}
	for _, r := range ten.RegSlots {
		q[r.Q] = true // the commit has moved it on since the settle sampled it
	}
	for i, slot := range ten.OutputSlots {
		if got, want := rb.PeekSlot(lane, slot), rb.PeekOutput(lane, i); !q[slot] && got != want {
			t.Fatalf("output %d: PeekSlot after StepReference = %d, sampled %d", i, got, want)
		}
	}
}

// TestBatchPackedDatapathKeepsWideSchedule: on an SoC design packing
// retreats to the few islands with a word-wide consumer, so the packed
// schedule is the wide one with a handful of entries swapped for word-wide
// bodies and a handful of crossings around the rest — no per-instruction
// boundary rewriting.
func TestBatchPackedDatapathKeepsWideSchedule(t *testing.T) {
	ten := genTensor(t, gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 64})
	wide := buildBatchSchedule(ten, false)
	packed := buildBatchSchedule(ten, true)
	var wordWide, crossings, untouched int
	for _, in := range packed.insts {
		switch {
		case in.code >= bpUnpack:
			crossings++
		case in.code >= bpAnd:
			wordWide++
		default:
			untouched++
		}
	}
	if untouched+wordWide != len(wide.insts) {
		t.Fatalf("%d wide + %d word-wide bodies, want the wide schedule's %d entries",
			untouched, wordWide, len(wide.insts))
	}
	if wordWide+crossings > 16 {
		t.Fatalf("%d word-wide bodies + %d crossings in a datapath schedule, want a handful",
			wordWide, crossings)
	}
}

// packedToggleGraph is a small control design with named 1-bit state: a
// toggle register gated by an enable input, driving a wide counter.
func packedToggleGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "toggle"}
	en := g.AddInput("en", 1)
	tog := g.AddReg("tog", 1, 0)
	cnt := g.AddReg("cnt", 8, 0)
	flip := g.AddOp(wire.Xor, 1, tog, en)
	g.SetRegNext(tog, flip)
	gate := g.AddOp(wire.And, 1, tog, en)
	one := g.AddConst(1, 8)
	sum := g.AddOp(wire.Add, 8, cnt, one)
	g.SetRegNext(cnt, g.AddOp(wire.Mux, 8, gate, sum, cnt))
	g.AddOutput("tog_out", tog)
	g.AddOutput("cnt_out", cnt)
	return g
}

// TestBatchPackedPokeSlotMidRun pokes a packed 1-bit register mid-run
// through the slot-level DMI surface and requires the packed batch to track
// a wide batch receiving identical pokes — the regression for PokeSlot
// routing through the packed layout.
func TestBatchPackedPokeSlotMidRun(t *testing.T) {
	ten := buildTensor(t, packedToggleGraph())
	sig, ok := NewSignalMap(ten).Resolve("tog")
	if !ok {
		t.Fatal("toggle register not resolvable")
	}
	if ten.Masks[sig.Slot] != 1 {
		t.Fatalf("toggle slot mask = %d, want 1", ten.Masks[sig.Slot])
	}
	const lanes = 70 // straddles a word boundary
	packed := packedBatch(t, ten, lanes, 1)
	if !packed.Packed() {
		t.Fatal("toggle design did not pack")
	}
	wide := wideBatch(t, ten, lanes)
	rng := rand.New(rand.NewSource(17))
	for c := 0; c < 12; c++ {
		for lane := 0; lane < lanes; lane++ {
			v := rng.Uint64()
			pokeLane(packed, lane, 0, v)
			pokeLane(wide, lane, 0, v)
		}
		if c == 4 || c == 9 {
			// Mid-run DMI poke: flip the packed toggle on a few lanes,
			// including lanes in the second word.
			for _, lane := range []int{0, 1, 63, 64, 69} {
				v := rng.Uint64()
				packed.PokeSlot(lane, sig.Slot, v)
				wide.PokeSlot(lane, sig.Slot, v)
				if got, want := packed.PeekSlot(lane, sig.Slot), v&1; got != want {
					t.Fatalf("cycle %d lane %d: packed PeekSlot after poke = %d, want %d", c, lane, got, want)
				}
			}
		}
		packed.Run(1)
		wide.Run(1)
		for lane := 0; lane < lanes; lane++ {
			for i := range ten.OutputSlots {
				if got, want := packed.PeekOutput(lane, i), wide.PeekOutput(lane, i); got != want {
					t.Fatalf("cycle %d lane %d out %d: packed %d, wide %d", c, lane, i, got, want)
				}
			}
		}
	}
}

// TestBatchPackedFallsBackWithoutOneBitSlots: a design whose every slot is
// wide compiles the packing schedule down to the wide one — Packed()
// reports false and behaviour is identical.
func TestBatchPackedFallsBackWithoutOneBitSlots(t *testing.T) {
	g := &dfg.Graph{Name: "wideonly"}
	a := g.AddInput("a", 8)
	b := g.AddInput("b", 8)
	r := g.AddReg("r", 8, 3)
	sum := g.AddOp(wire.Add, 8, a, b)
	g.SetRegNext(r, g.AddOp(wire.Xor, 8, sum, r))
	g.AddOutput("out", r)
	ten := buildTensor(t, g)
	pb := packedBatch(t, ten, 4, 1)
	if pb.Packed() {
		t.Fatal("all-wide design reported a packed batch")
	}
	seeds := laneSeeds(4)
	got := batchTrace(pb, seeds, 6, nil)
	want := batchTrace(wideBatch(t, ten, 4), seeds, 6, (*Batch).StepReference)
	for lane := range want {
		for i := range want[lane] {
			if got[lane][i] != want[lane][i] {
				t.Fatalf("lane %d: fallback diverges at trace[%d]", lane, i)
			}
		}
	}
}
