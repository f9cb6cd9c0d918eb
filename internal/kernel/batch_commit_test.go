package kernel

import (
	"math/rand"
	"runtime"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
)

// checkOrderedCommit runs orderCommits' moves one after another over a model
// store and requires the result of the simultaneous update: every Q holds
// what its Next held before any move, and no other row but a temporary
// changed.
func checkOrderedCommit(t *testing.T, name string, cs []commitInst) {
	t.Helper()
	type loc struct {
		row    int32
		packed bool
	}
	const tmpWide, tmpPacked = 1 << 20, 1<<20 + 1
	rng := rand.New(rand.NewSource(int64(len(cs))))
	store := map[loc]uint64{}
	for _, c := range cs {
		store[loc{c.q, c.qp}] = rng.Uint64()
		store[loc{c.next, c.np}] = rng.Uint64()
	}
	want := map[loc]uint64{}
	for l, v := range store {
		want[l] = v
	}
	for _, c := range cs {
		v := store[loc{c.next, c.np}]
		if c.masked {
			v &= c.mask
		}
		want[loc{c.q, c.qp}] = v
	}
	moves := orderCommits(cs, tmpWide, tmpPacked)
	for _, m := range moves {
		v, ok := store[loc{m.next, m.np}]
		if !ok {
			t.Fatalf("%s: move %+v reads a row no register names", name, m)
		}
		if m.masked {
			v &= m.mask
		}
		store[loc{m.q, m.qp}] = v
	}
	delete(store, loc{tmpWide, false})
	delete(store, loc{tmpPacked, true})
	if len(store) != len(want) {
		t.Fatalf("%s: %d rows after the moves, want %d", name, len(store), len(want))
	}
	for l, v := range want {
		if store[l] != v {
			t.Fatalf("%s: row %+v = %#x after the ordered moves, want %#x\nregisters %+v\nmoves %+v", name, l, store[l], v, cs, moves)
		}
	}
}

// TestOrderCommits: the ordered, in-place commit is the simultaneous one, on
// the directed shapes — swap, 3-cycle, self-loop, a chain of 64, a Q read by
// five registers and by its own cycle — and on random register sets whose
// Next is a fresh row, another register's Q or its own, in mixed layouts.
func TestOrderCommits(t *testing.T) {
	reg := func(q, next int32) commitInst { return commitInst{q: q, next: next} }
	chain := []commitInst{reg(0, 100)}
	for i := int32(1); i < 64; i++ {
		chain = append(chain, reg(i, i-1))
	}
	fan := []commitInst{reg(0, 1), reg(1, 2), reg(2, 0)}
	for i := int32(3); i < 8; i++ {
		fan = append(fan, reg(i, 0))
	}
	packedSwap := []commitInst{{q: 0, next: 1, qp: true, np: true}, {q: 1, next: 0, qp: true, np: true}, reg(0, 1), reg(1, 0)}
	for name, cs := range map[string][]commitInst{
		"none":          nil,
		"independent":   {reg(0, 10), reg(1, 11), reg(2, 10)},
		"swap":          {reg(0, 1), reg(1, 0)},
		"3-cycle":       {reg(0, 1), reg(1, 2), reg(2, 0)},
		"self-loop":     {{q: 0, next: 0, masked: true, mask: 0xff}, reg(1, 0)},
		"chain of 64":   chain,
		"fan-out 5":     fan,
		"both layouts":  packedSwap,
		"mixed 2-cycle": {{q: 0, next: 0, np: true}, {q: 0, next: 0, qp: true}},
	} {
		checkOrderedCommit(t, name, cs)
	}
	if moves := orderCommits(chain[:3], -1, -1); moves[0].q != 2 || moves[1].q != 1 || moves[2].q != 0 {
		t.Fatalf("a chain commits from its free end: got %+v", moves)
	}
	if moves := orderCommits([]commitInst{reg(0, 10), reg(1, 11)}, -1, -1); moves[0].q != 0 || moves[1].q != 1 {
		t.Fatalf("independent registers keep register order: got %+v", moves)
	}

	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(24)
		packed := make([]bool, n)
		for i := range packed {
			packed[i] = rng.Intn(3) == 0
		}
		cs := make([]commitInst, n)
		for i := range cs {
			c := commitInst{q: int32(i), qp: packed[i], mask: rng.Uint64(), masked: rng.Intn(2) == 0}
			switch k := rng.Intn(4); {
			case k == 0: // a fresh row
				c.next, c.np = int32(n+rng.Intn(4)), rng.Intn(2) == 0
			case k == 1: // its own Q
				c.next, c.np = c.q, c.qp
			default: // another register's Q (or, by chance, its own)
				j := rng.Intn(n)
				c.next, c.np = int32(j), packed[j]
			}
			cs[i] = c
		}
		checkOrderedCommit(t, "random", cs)
	}
}

// TestBatchCommitMoves runs the harness's fixed commit design — cycles,
// chains and fan-out on packed and on wide registers, and registers packed on
// one side only — as a wide batch, as packed batches whose lanes straddle
// words, blocks and workers, and through scalar TI: bit-identical for 32
// cycles. The packed schedule must actually hold what the design is for: a
// move of every packed/wide shape and a cycle broken in each store.
func TestBatchCommitMoves(t *testing.T) {
	ten := buildTensor(t, dfg.CommitMovesGraph()) // unoptimised: keep the shapes
	sched := buildBatchSchedule(ten, true)
	shapes := map[[2]bool]bool{}
	var savesWide, savesPacked bool
	for _, c := range sched.commits {
		shapes[[2]bool{c.qp, c.np}] = true
		savesWide = savesWide || (!c.qp && int(c.q) == sched.wideRows-1)
		savesPacked = savesPacked || (c.qp && int(c.q) == sched.packedRows-1)
	}
	if len(shapes) != 4 || !savesWide || !savesPacked {
		t.Fatalf("commit plan: (Q packed, Next packed) shapes %v, cycle broken wide %v packed %v; want all four and both",
			shapes, savesWide, savesPacked)
	}
	if len(sched.commits) <= len(ten.RegSlots) {
		t.Fatalf("%d moves for %d registers: the cycles' saves are missing", len(sched.commits), len(ten.RegSlots))
	}

	const cycles = 32
	e, err := New(ten, Config{Kind: TI})
	if err != nil {
		t.Fatal(err)
	}
	seeds := laneSeeds(300)
	want := make([][]uint64, len(seeds))
	for lane := range want {
		want[lane] = engineTrace(e, seeds[lane], cycles)
		e.Reset()
	}
	prog, err := NewProgram(ten, Config{Kind: PSU})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lanes, workers int
		packing        bool
	}{
		{70, 1, false}, {70, 1, true}, {70, 2, true}, {300, 1, true}, {300, 2, true},
	} {
		b, err := prog.InstantiateBatchWith(tc.lanes, BatchOptions{Workers: tc.workers, Packing: tc.packing})
		if err != nil {
			t.Fatal(err)
		}
		if b.Packed() != tc.packing {
			t.Fatalf("%+v: Packed() = %v", tc, b.Packed())
		}
		got := batchTrace(b, seeds[:tc.lanes], cycles, nil)
		b.Close()
		for lane := range got {
			for i := range got[lane] {
				if got[lane][i] != want[lane][i] {
					t.Fatalf("%+v lane %d: batch diverges from TI at trace[%d]: %d != %d", tc, lane, i, got[lane][i], want[lane][i])
				}
			}
		}
	}
}

// TestBatchShardsSplitLanesEvenly: whatever the packing, the lanes of a
// batch split evenly over its workers — a packed row belongs to one block, so
// no split has to respect a word boundary — and no block exceeds the fixed
// row width.
func TestBatchShardsSplitLanesEvenly(t *testing.T) {
	ten := buildTensor(t, packedToggleGraph())
	for _, lanes := range []int{2, 63, 64, 65, 128, 300, 1000} {
		for _, workers := range []int{2, 3} {
			workers = min(workers, lanes)
			b := packedBatch(t, ten, lanes, workers)
			if !b.Packed() || b.Workers() != workers {
				t.Fatalf("lanes %d: packed %v, %d workers; want a packed batch of %d workers", lanes, b.Packed(), b.Workers(), workers)
			}
			owner := make([]int, lanes)
			for l := range owner {
				owner[l] = -1
			}
			lo, hi := lanes, 0
			for w := 0; w < workers; w++ {
				share := 0
				for _, blk := range b.blocks[b.own[w]:b.own[w+1]] {
					if blk.n < 1 || blk.n > 64*blockWords {
						t.Fatalf("lanes %d workers %d: a block of %d lanes", lanes, workers, blk.n)
					}
					for l := blk.lo; l < blk.lo+blk.n; l++ {
						if owner[l] >= 0 {
							t.Fatalf("lanes %d workers %d: lane %d owned by workers %d and %d", lanes, workers, l, owner[l], w)
						}
						owner[l] = w
						if got, _ := b.at(l); got.lo != blk.lo {
							t.Fatalf("lanes %d workers %d: lane %d located in the block at %d, owned by the one at %d", lanes, workers, l, got.lo, blk.lo)
						}
					}
					share += blk.n
				}
				lo, hi = min(lo, share), max(hi, share)
			}
			for l, w := range owner {
				if w < 0 {
					t.Fatalf("lanes %d workers %d: lane %d has no owner", lanes, workers, l)
				}
			}
			if hi-lo > 1 {
				t.Fatalf("lanes %d workers %d: shares range from %d to %d lanes", lanes, workers, lo, hi)
			}
			b.Close()
		}
	}
}

// TestBatchPackedWorkersShareNoWord splits one 64-lane packed word's worth of
// lanes over two workers on the control fabric and requires the one-worker
// trace. Under the race detector it fails if the two workers ever touch the
// same packed word, which a split inside a shared word would make them do on
// every instruction.
func TestBatchPackedWorkersShareNoWord(t *testing.T) {
	ten := genTensor(t, gen.Spec{Family: gen.Ctrl, Cores: 16})
	const lanes, cycles = 64, 8
	seeds := laneSeeds(lanes)
	want := batchTrace(packedBatch(t, ten, lanes, 1), seeds, cycles, nil)
	par := packedBatch(t, ten, lanes, 2)
	defer par.Close()
	got := batchTrace(par, seeds, cycles, nil)
	for lane := range want {
		for i := range want[lane] {
			if got[lane][i] != want[lane][i] {
				t.Fatalf("lane %d: two workers diverge from one at trace[%d]: %d != %d", lane, i, got[lane][i], want[lane][i])
			}
		}
	}
}

// TestBatchRetainedHeap: a batch is state. With the program's schedule
// already built, a batch keeps live little more than its three arrays — the
// wide rows, the packed rows and the sampled outputs — and a second batch of
// the same program the same again: nothing per instruction, per register or
// per slot is bound to a batch or a worker. (A staging buffer of registers x
// lanes words made the packed control fabric more than ten times its state;
// bound instructions and two slice headers per slot a third more on r1/8,
// per worker.) The state itself follows what is live: r1/8's packing
// schedule recycles its wide rows by liveness, so it needs far fewer rows
// than slots (one row per slot kept each 64-lane block at 4.4 MB).
func TestBatchRetainedHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, row := range []struct {
		name            string
		spec            gen.Spec
		lanes, workers  int
		wideRowsPerSlot float64 // the bound on the schedule's wide rows over slots; 0: none
	}{
		{"c256, 256 packed lanes", gen.Spec{Family: gen.Ctrl, Cores: 256}, 256, 1, 0},
		{"r1/8, 64 wide lanes", gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8}, 64, 1, 0.3},
		{"r1/8, 64 wide lanes, two workers", gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8}, 64, 2, 0.3},
	} {
		ten := genTensor(t, row.spec)
		packedBatch(t, ten, 1, 1).Close() // the tensor-level analyses are warm
		prog, err := NewProgram(ten, Config{Kind: PSU})
		if err != nil {
			t.Fatal(err)
		}
		opts := BatchOptions{Workers: row.workers, Packing: true}
		warm, err := prog.InstantiateBatchWith(row.lanes, opts) // builds the schedule
		if err != nil {
			t.Fatal(err)
		}
		warm.Close()
		if rows := warm.sched.wideRows; row.wideRowsPerSlot > 0 && float64(rows) > row.wideRowsPerSlot*float64(ten.NumSlots) {
			t.Errorf("%s: the schedule keeps %d wide rows for %d slots, want at most %.2f per slot", row.name, rows, ten.NumSlots, row.wideRowsPerSlot)
		}
		var batches [2]*Batch
		for i := range batches {
			before := heap()
			if batches[i], err = prog.InstantiateBatchWith(row.lanes, opts); err != nil {
				t.Fatal(err)
			}
			b := batches[i]
			retained := heap() - before
			state := int64(8 * (len(b.wide) + blockWords*len(b.pk) + len(b.outs)))
			t.Logf("%s, batch %d: retains %d bytes over %d of state (%.2fx)", row.name, i+1, retained, state, float64(retained)/float64(state))
			if 4*retained > 5*state {
				t.Errorf("%s, batch %d: retains %d bytes, want at most 1.25x its %d bytes of state", row.name, i+1, retained, state)
			}
		}
		for _, b := range batches {
			b.Close()
		}
	}
}
