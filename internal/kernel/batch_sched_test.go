package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/oim"
)

// batchTrace steps a batch under per-lane seeded stimulus, collecting every
// lane's outputs and register snapshots. step selects the engine: the
// scalar reference loop, or nil for a one-cycle Run.
func batchTrace(b *Batch, seeds []int64, cycles int, step func(*Batch)) [][]uint64 {
	if step == nil {
		step = func(b *Batch) { b.Run(1) }
	}
	nIn := len(b.Tensor().InputSlots)
	rngs := make([]*rand.Rand, b.Lanes())
	for lane := range rngs {
		rngs[lane] = rand.New(rand.NewSource(seeds[lane]))
	}
	traces := make([][]uint64, b.Lanes())
	for c := 0; c < cycles; c++ {
		for lane := 0; lane < b.Lanes(); lane++ {
			for i := 0; i < nIn; i++ {
				pokeLane(b, lane, i, rngs[lane].Uint64())
			}
		}
		step(b)
		for lane := 0; lane < b.Lanes(); lane++ {
			for i := range b.Tensor().OutputSlots {
				traces[lane] = append(traces[lane], b.PeekOutput(lane, i))
			}
			traces[lane] = append(traces[lane], laneRegs(b, lane)...)
		}
	}
	return traces
}

func laneSeeds(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(7000 + 13*i)
	}
	return s
}

// TestBatchFusedMatchesReference pins the wide fused schedule to the
// reference loop on random optimised circuits: same lanes, same stimulus,
// bit-identical outputs and registers. This is the differential test that
// licenses every schedule-compiler trick (rows recycled by liveness, mask
// elision, constant Bits folding, branchless mux, fused commit).
func TestBatchFusedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const lanes, cycles = 5, 8
	for trial := 0; trial < 40; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildTensor(t, opt)
		seeds := laneSeeds(lanes)
		got := batchTrace(wideBatch(t, ten, lanes), seeds, cycles, nil)
		want := batchTrace(wideBatch(t, ten, lanes), seeds, cycles, (*Batch).StepReference)
		for lane := range want {
			for i := range want[lane] {
				if got[lane][i] != want[lane][i] {
					t.Fatalf("trial %d lane %d: fused diverges from reference at trace[%d]: %d != %d",
						trial, lane, i, got[lane][i], want[lane][i])
				}
			}
		}
	}
}

// TestBatchMatchesEngines cross-checks the fused batch against every
// kernel's single-lane engine on random circuits.
func TestBatchMatchesEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	const lanes, cycles = 3, 6
	for trial := 0; trial < 10; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildTensor(t, opt)
		seeds := laneSeeds(lanes)
		got := batchTrace(wideBatch(t, ten, lanes), seeds, cycles, nil)
		for _, kind := range Kinds() {
			e, err := newEngine(ten, Config{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < lanes; lane++ {
				want := engineTrace(e, seeds[lane], cycles)
				for i := range want {
					if got[lane][i] != want[i] {
						t.Fatalf("trial %d %v lane %d: batch diverges at trace[%d]: %d != %d",
							trial, kind, lane, i, got[lane][i], want[i])
					}
				}
				e.Reset()
			}
		}
	}
}

// TestBatchParallelMatchesSequential shards the same stimulus over 2..5
// workers and requires bit-identical traces to the sequential batch,
// including worker counts that do not divide the lane count.
func TestBatchParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	const lanes, cycles = 7, 6
	for trial := 0; trial < 10; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildTensor(t, opt)
		prog, err := NewProgram(ten, Config{Kind: PSU})
		if err != nil {
			t.Fatal(err)
		}
		seeds := laneSeeds(lanes)
		seq, err := prog.InstantiateBatchWith(lanes, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := batchTrace(seq, seeds, cycles, nil)
		for _, workers := range []int{2, 3, 5} {
			par, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", par.Workers(), workers)
			}
			got := batchTrace(par, seeds, cycles, nil)
			par.Close()
			for lane := range want {
				for i := range want[lane] {
					if got[lane][i] != want[lane][i] {
						t.Fatalf("trial %d workers %d lane %d: parallel diverges at trace[%d]: %d != %d",
							trial, workers, lane, i, got[lane][i], want[lane][i])
					}
				}
			}
		}
	}
}

// TestBatchCommitAliasing builds a shift register whose Next coordinates
// alias other registers' Q coordinates — the one hazard that forbids
// committing in register order — and checks the schedule orders every read of
// a Q before its write and produces correct traces.
func TestBatchCommitAliasing(t *testing.T) {
	g := &dfg.Graph{Name: "shift"}
	in := g.AddInput("in", 8)
	r1 := g.AddReg("r1", 8, 1)
	r2 := g.AddReg("r2", 8, 2)
	r3 := g.AddReg("r3", 8, 3)
	g.SetRegNext(r1, in)
	g.SetRegNext(r2, r1) // r2.Next IS r1.Q: commit order matters
	g.SetRegNext(r3, r2)
	g.AddOutput("out", r3)
	ten := buildTensor(t, g) // no optimisation: keep the direct aliasing
	sched := buildBatchSchedule(ten, false)
	written := map[int32]bool{}
	for _, c := range sched.commits {
		if written[c.next] {
			t.Fatalf("commit reads row %d after a move overwrote it: %+v", c.next, sched.commits)
		}
		written[c.q] = true
	}
	b := wideBatch(t, ten, 2)
	e, err := newEngine(ten, Config{Kind: TI})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 6; c++ {
		v := rng.Uint64()
		pokeLane(b, 0, 0, v)
		pokeLane(b, 1, 0, v)
		pokeInput(e, 0, v)
		b.Run(1)
		e.Step()
		want := regsOf(e)
		for lane := 0; lane < 2; lane++ {
			got := laneRegs(b, lane)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cycle %d lane %d: reg[%d] = %d, engine %d", c, lane, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchWorkerClampAndClose covers the worker-count edges: clamping to
// the lane count, zero workers meaning one, and idempotent Close.
func TestBatchWorkerClampAndClose(t *testing.T) {
	g := dfg.RandomGraph(rand.New(rand.NewSource(1)), dfg.DefaultRandomParams())
	ten := buildTensor(t, g)
	prog, err := NewProgram(ten, Config{Kind: TI})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.InstantiateBatchWith(3, BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.Workers() != 3 {
		t.Fatalf("workers not clamped to lanes: %d", b.Workers())
	}
	b.Run(1)
	b.Close()
	b.Close() // idempotent
	// Workers 0 is the options struct's zero value: the sequential path.
	seq, err := prog.InstantiateBatchWith(4, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Workers() != 1 {
		t.Fatalf("sequential batch reports %d workers", seq.Workers())
	}
	seq.Close() // no-op on sequential batches
}

// TestBatchRowReuse: every schedule recycles rows by liveness, and no live
// value is ever overwritten. Each design's packing and wide schedules are
// compiled twice, in slot space and in row space, and one settle of the
// row-space instructions is walked while tracking which slot's value each
// row of each store holds. Before the settle, a row holds what the host or Reset put
// there: the home row of every input, constant and register Q, and every
// other row of a constant (Reset loads them all). Then every instruction must
// name rows in range, write no row it reads, and find in each operand row the
// slot its slot-space twin names; and the rows read between settles — those
// initial rows, and the home rows of outputs and Nexts once written — must
// hold their slot after every write and at the end of the settle. The wide
// schedule of a datapath keeps what is live, not a row per slot.
func TestBatchRowReuse(t *testing.T) {
	for _, d := range []struct {
		name string
		ten  *oim.Tensor
	}{
		{"c16", genTensor(t, gen.Spec{Family: gen.Ctrl, Cores: 16})},
		{"c2048", genTensor(t, gen.Spec{Family: gen.Ctrl, Cores: 2048})},
		{"r1/8", genTensor(t, gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8})},
		{"commit moves", buildTensor(t, dfg.CommitMovesGraph())},
		{"crossing", buildTensor(t, packedCrossingGraph())},
	} {
		for _, packing := range []bool{true, false} {
			checkRowReuse(t, d.name, d.ten, packing)
		}
	}
}

// checkRowReuse walks one settle of one of a design's schedules; see
// TestBatchRowReuse.
func checkRowReuse(t *testing.T, name string, ten *oim.Tensor, packing bool) {
	t.Helper()
	slots, _ := slotSchedule(ten, packing)
	rows := buildBatchSchedule(ten, packing)
	if (rows.packedRow != nil) != packing || len(rows.insts) != len(slots.insts) {
		t.Fatalf("%s: packed %v, %d row-space against %d slot-space instructions", name, rows.packedRow != nil, len(rows.insts), len(slots.insts))
	}
	// owner[p][row] is the slot whose value the row of the store holds
	// (p: the packed store), -1 for none; kept marks the rows read
	// between settles.
	var owner, kept [2][]int32
	for p, n := range [2]int{rows.wideRows, rows.packedRows} {
		owner[p], kept[p] = make([]int32, n), make([]int32, n)
		for r := range n {
			owner[p][r], kept[p][r] = -1, -1
		}
	}
	hold := func(slot, row int32, packed bool) {
		p := b2u(packed)
		owner[p][row], kept[p][row] = slot, slot
	}
	for _, slot := range ten.InputSlots {
		row, packed := rows.home(slot)
		hold(slot, row, packed)
	}
	for _, r := range ten.RegSlots {
		row, packed := rows.home(r.Q)
		hold(r.Q, row, packed)
	}
	for _, c := range ten.ConstSlots {
		if row := rows.wideRow[c.Slot]; row >= 0 {
			hold(c.Slot, row, false)
		}
		if packing && rows.packedRow[c.Slot] >= 0 {
			hold(c.Slot, rows.packedRow[c.Slot], true)
		}
	}
	wroteWide := map[int32]bool{}
	inPlace := 0 // reads of a packed slot's wide view that no instruction wrote
	readLater := map[int32]bool{}
	for _, slot := range ten.OutputSlots {
		readLater[slot] = true
	}
	for _, r := range ten.RegSlots {
		readLater[r.Next] = true
	}
	for i := range rows.insts {
		in, twin := &rows.insts[i], &slots.insts[i]
		outP, argsP := in.code.packedSides()
		o, a := b2u(outP), b2u(argsP)
		rowArgs, slotArgs := in.args(rows.ext), twin.args(slots.ext)
		if in.code != twin.code || len(rowArgs) != len(slotArgs) {
			t.Fatalf("%s: instruction %d is code %d with %d operands in row space, %d with %d in slot space", name, i, in.code, len(rowArgs), twin.code, len(slotArgs))
		}
		inRange := func(row int32, p uint64) bool { return row >= 0 && int(row) < len(owner[p]) }
		if !inRange(in.out, o) || slices.ContainsFunc(rowArgs, func(row int32) bool { return !inRange(row, a) }) {
			t.Fatalf("%s: instruction %d names rows %d <- %v; the stores hold %d wide and %d packed rows", name, i, in.out, rowArgs, rows.wideRows, rows.packedRows)
		}
		for j, row := range rowArgs {
			if got := owner[a][row]; got != slotArgs[j] {
				t.Fatalf("%s: instruction %d (code %d) reads slot %d from row %d (packed %v), which holds slot %d", name, i, in.code, slotArgs[j], row, argsP, got)
			}
			if !argsP && packing && rows.packedRow[slotArgs[j]] >= 0 && !wroteWide[slotArgs[j]] {
				inPlace++
			}
			if o == a && row == in.out {
				t.Fatalf("%s: instruction %d (code %d) writes row %d (packed %v), its own operand", name, i, in.code, row, outP)
			}
		}
		if k := kept[o][in.out]; k >= 0 && k != twin.out {
			t.Fatalf("%s: instruction %d writes slot %d over slot %d, read between settles, in row %d (packed %v)", name, i, twin.out, k, in.out, outP)
		}
		owner[o][in.out] = twin.out
		wroteWide[twin.out] = wroteWide[twin.out] || !outP
		if row, packed := rows.home(twin.out); readLater[twin.out] && row == in.out && packed == outP {
			kept[o][in.out] = twin.out
		}
	}
	for p := range kept {
		for row, slot := range kept[p] {
			if slot >= 0 && owner[p][row] != slot {
				t.Fatalf("%s: row %d (packed %v) ends the settle holding slot %d, not slot %d", name, row, p == 1, owner[p][row], slot)
			}
		}
	}
	for slot := range readLater {
		if row, packed := rows.home(slot); owner[b2u(packed)][row] != slot {
			t.Fatalf("%s: slot %d, read after the settle, is not in its home row %d (packed %v)", name, slot, row, packed)
		}
	}
	if name == "crossing" && packing && inPlace == 0 {
		t.Errorf("%s: no wide body reads a packed constant in place: the rows read before written go unchecked", name)
	}
	// One row per slot would be NumSlots+1; a datapath's values die young.
	if name == "r1/8" && !packing && rows.wideRows*2 > ten.NumSlots {
		t.Errorf("%s: the wide schedule keeps %d rows for %d slots, want under half: rows are not recycled", name, rows.wideRows, ten.NumSlots)
	}
	t.Logf("%s packing=%v: %d slots in %d wide and %d packed rows", name, packing, ten.NumSlots, rows.wideRows, rows.packedRows)
}
