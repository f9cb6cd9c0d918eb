package kernel

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
)

// batchTrace steps a batch under per-lane seeded stimulus, collecting every
// lane's outputs and register snapshots. step selects the engine: the fused
// schedule, the scalar reference loop, or nil for Step.
func batchTrace(b *Batch, seeds []int64, cycles int, step func(*Batch)) [][]uint64 {
	if step == nil {
		step = (*Batch).Step
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
				b.PokeInput(lane, i, rngs[lane].Uint64())
			}
		}
		step(b)
		for lane := 0; lane < b.Lanes(); lane++ {
			for i := range b.Tensor().OutputSlots {
				traces[lane] = append(traces[lane], b.PeekOutput(lane, i))
			}
			traces[lane] = append(traces[lane], b.RegSnapshot(lane)...)
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

// TestBatchFusedMatchesReference pins the fused schedule to the
// pre-schedule scalar tape loop on random optimised circuits: same lanes,
// same stimulus, bit-identical outputs and registers. This is the
// differential test that licenses every schedule-compiler trick (operand
// pre-binding, mask elision, constant Bits folding, branchless mux, fused
// commit).
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
		fused, err := NewBatch(ten, lanes)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewBatch(ten, lanes)
		if err != nil {
			t.Fatal(err)
		}
		seeds := laneSeeds(lanes)
		got := batchTrace(fused, seeds, cycles, nil)
		want := batchTrace(ref, seeds, cycles, (*Batch).StepReference)
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
		b, err := NewBatch(ten, lanes)
		if err != nil {
			t.Fatal(err)
		}
		seeds := laneSeeds(lanes)
		got := batchTrace(b, seeds, cycles, nil)
		for _, kind := range Kinds() {
			e, err := New(ten, Config{Kind: kind})
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
	b, err := NewBatch(ten, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ten, Config{Kind: TI})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 6; c++ {
		v := rng.Uint64()
		b.PokeInput(0, 0, v)
		b.PokeInput(1, 0, v)
		e.PokeInput(0, v)
		b.Step()
		e.Step()
		want := e.RegSnapshot()
		for lane := 0; lane < 2; lane++ {
			got := b.RegSnapshot(lane)
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
	b.Step()
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
