package kernel

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// bulkCounterTensor builds a small deterministic accumulator design —
// count' = count + step — whose trajectory under known pokes is easy to
// predict, for the watch and poke-plan tests.
func bulkCounterTensor(t *testing.T) *oim.Tensor {
	t.Helper()
	g := &dfg.Graph{Name: "bulkcounter"}
	in := g.AddInput("step", 8)
	c := g.AddReg("c", 8, 0)
	g.SetRegNext(c, g.AddOp(wire.Add, 8, c, in))
	g.AddOutput("count", c)
	return buildTensor(t, g)
}

// refBatchBulk is the per-cycle reference semantics of [Batch.RunBulk],
// written directly against the poke/step/peek surface: apply the cycle's
// pokes, step, evaluate the watch against the same coordinates the run
// loops read. Every resident run path must be bit-identical to it.
func refBatchBulk(b *Batch, spec RunSpec) (ran int, stopped bool) {
	pokes := sortedPokes(spec.Pokes)
	pi := 0
	for i := 0; i < spec.Cycles; i++ {
		for pi < len(pokes) && pokes[pi].Cycle <= i {
			p := pokes[pi]
			b.PokeSlot(p.Lane, p.Slot, p.Value)
			pi++
		}
		b.Step()
		ran++
		if w := spec.Watch; w != nil {
			var v uint64
			if w.OutIdx >= 0 {
				v = b.PeekOutput(w.Lane, w.OutIdx)
			} else {
				v = b.PeekSlot(w.Lane, w.Slot)
			}
			if w.Accepts(v) {
				return ran, true
			}
		}
	}
	return ran, false
}

// batchState flattens every lane's sampled outputs and committed registers.
func batchState(b *Batch) []uint64 {
	var s []uint64
	for lane := 0; lane < b.Lanes(); lane++ {
		for i := range b.Tensor().OutputSlots {
			s = append(s, b.PeekOutput(lane, i))
		}
		s = append(s, b.RegSnapshot(lane)...)
	}
	return s
}

// TestBatchRunMatchesStep drives two identical batches — one through
// Run(k) chunks, one through k single Steps — with fresh pokes between
// every chunk, across the fused and packed schedules and sequential and
// sharded workers. Covers the mid-run semantics contract: pokes land
// between runs, Run(0) is a no-op, and chunk boundaries are invisible in
// the trace.
func TestBatchRunMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	const lanes = 5
	chunks := []int{1, 3, 0, 5, 2, 7, 4}
	for trial := 0; trial < 6; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildTensor(t, opt)
		for _, packing := range []bool{false, true} {
			prog, err := NewProgram(ten, Config{Kind: PSU})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				bulk, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: workers, Packing: packing})
				if err != nil {
					t.Fatal(err)
				}
				step, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: 1, Packing: packing})
				if err != nil {
					t.Fatal(err)
				}
				stim := rand.New(rand.NewSource(int64(trial)*31 + 5))
				for ci, k := range chunks {
					for lane := 0; lane < lanes; lane++ {
						for i := range ten.InputSlots {
							v := stim.Uint64()
							bulk.PokeInput(lane, i, v)
							step.PokeInput(lane, i, v)
						}
					}
					bulk.Run(k)
					for c := 0; c < k; c++ {
						step.Step()
					}
					got, want := batchState(bulk), batchState(step)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d packing=%v workers=%d chunk %d (k=%d): state[%d] = %d, want %d",
								trial, packing, workers, ci, k, i, got[i], want[i])
						}
					}
				}
				bulk.Close()
				step.Close()
			}
		}
	}
}

// TestBatchRunBulkPokePlan checks that a scheduled poke plan executed
// inside one resident run is bit-identical to poking by hand between
// single steps, for every schedule/worker shape, including out-of-order
// plans (sorted by the dispatcher) and multiple lanes poked at one cycle.
func TestBatchRunBulkPokePlan(t *testing.T) {
	ten := bulkCounterTensor(t)
	stepSlot := ten.InputSlots[0]
	const lanes, cycles = 5, 12
	plan := []PlannedPoke{
		{Cycle: 7, Lane: 4, Slot: stepSlot, Value: 9}, // out of order: dispatcher sorts
		{Cycle: 0, Lane: 0, Slot: stepSlot, Value: 1},
		{Cycle: 0, Lane: 2, Slot: stepSlot, Value: 3},
		{Cycle: 3, Lane: 0, Slot: stepSlot, Value: 5},
		{Cycle: 3, Lane: 2, Slot: stepSlot, Value: 0},
		{Cycle: 11, Lane: 1, Slot: stepSlot, Value: 200},
	}
	for _, packing := range []bool{false, true} {
		prog, err := NewProgram(ten, Config{Kind: PSU})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			b, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: workers, Packing: packing})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: 1, Packing: packing})
			if err != nil {
				t.Fatal(err)
			}
			spec := RunSpec{Cycles: cycles, Pokes: plan}
			ran, stopped := b.RunBulk(spec)
			wantRan, wantStopped := refBatchBulk(ref, spec)
			if ran != wantRan || stopped != wantStopped {
				t.Fatalf("packing=%v workers=%d: RunBulk = (%d,%v), reference (%d,%v)",
					packing, workers, ran, stopped, wantRan, wantStopped)
			}
			got, want := batchState(b), batchState(ref)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packing=%v workers=%d: state[%d] = %d, want %d",
						packing, workers, i, got[i], want[i])
				}
			}
			b.Close()
			ref.Close()
		}
	}
}

// TestBatchRunBulkWatchStops pins the early-stop contract on the counter
// design: a watch on a non-zero lane stops every lane at the accepting
// cycle (locked-step execution), an output watch reads the settle-sampled
// value, a watch accepting on the final cycle still reports stopped, and a
// watch that never accepts runs to completion.
func TestBatchRunBulkWatchStops(t *testing.T) {
	ten := bulkCounterTensor(t)
	const lanes = 5
	for _, packing := range []bool{false, true} {
		prog, err := NewProgram(ten, Config{Kind: PSU})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, tc := range []struct {
				name        string
				cycles      int
				accept      uint64 // watched count value that stops the run
				wantRan     int
				wantStopped bool
			}{
				// Output "count" is sampled at settle, before that cycle's
				// commit: after completed cycle i (1-based) it reads
				// (i-1)*step, so count==4*step is observed at the end of
				// cycle 5.
				{"mid-run", 20, 4, 5, true},
				{"last-cycle", 5, 4, 5, true},
				{"never", 8, 200, 8, false},
			} {
				b, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: workers, Packing: packing})
				if err != nil {
					t.Fatal(err)
				}
				for lane := 0; lane < lanes; lane++ {
					b.PokeInput(lane, 0, uint64(lane)) // lane 3 counts by 3
				}
				accept := tc.accept * 3
				w := &Watch{Lane: 3, OutIdx: 0, Pred: func(v uint64) bool { return v == accept }}
				ran, stopped := b.RunBulk(RunSpec{Cycles: tc.cycles, Watch: w})
				if ran != tc.wantRan || stopped != tc.wantStopped {
					t.Fatalf("packing=%v workers=%d %s: RunBulk = (%d,%v), want (%d,%v)",
						packing, workers, tc.name, ran, stopped, tc.wantRan, tc.wantStopped)
				}
				// Locked-step: every lane advanced exactly ran cycles.
				for lane := 0; lane < lanes; lane++ {
					if got, want := b.RegSnapshot(lane)[0], uint64(lane*ran)&0xff; got != want {
						t.Fatalf("packing=%v workers=%d %s: lane %d reg = %d after %d cycles, want %d",
							packing, workers, tc.name, lane, got, ran, want)
					}
				}
				b.Close()
			}
		}
	}
}

// TestBatchRunEdgeCases covers the degenerate calls: Run(0) and negative
// counts complete no cycles, RunBulk reports them as (0,false), and any
// run after Close panics.
func TestBatchRunEdgeCases(t *testing.T) {
	ten := bulkCounterTensor(t)
	prog, err := NewProgram(ten, Config{Kind: PSU})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b, err := prog.InstantiateBatchWith(3, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b.PokeInput(0, 0, 1)
		b.Run(4)
		if got := b.RegSnapshot(0)[0]; got != 4 {
			t.Fatalf("workers=%d: reg = %d after Run(4), want 4", workers, got)
		}
		b.Run(0)
		b.Run(-3)
		if ran, stopped := b.RunBulk(RunSpec{Cycles: 0}); ran != 0 || stopped {
			t.Fatalf("workers=%d: RunBulk(0) = (%d,%v)", workers, ran, stopped)
		}
		if got := b.RegSnapshot(0)[0]; got != 4 {
			t.Fatalf("workers=%d: empty runs advanced state: reg = %d", workers, got)
		}
		b.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: Run after Close did not panic", workers)
				}
			}()
			b.Run(1)
		}()
	}
}

// TestScalarEnginesRunCycles checks RunEngine — the bulk path of every
// scalar kernel — against k single Steps under identical stimulus held
// across the run, for all seven kinds.
func TestScalarEnginesRunCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 4; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := buildTensor(t, opt)
		for _, cfg := range allConfigs() {
			bulk, err := New(ten, cfg)
			if err != nil {
				t.Fatal(err)
			}
			step, err := New(ten, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stim := rand.New(rand.NewSource(int64(trial) + 17))
			for _, k := range []int{1, 4, 7} {
				for i := range ten.InputSlots {
					v := stim.Uint64()
					bulk.PokeInput(i, v)
					step.PokeInput(i, v)
				}
				if ran, stopped := RunEngine(bulk, RunSpec{Cycles: k}); ran != k || stopped {
					t.Fatalf("trial %d %v: RunEngine(%d) = (%d,%v)", trial, cfg, k, ran, stopped)
				}
				for c := 0; c < k; c++ {
					step.Step()
				}
				gotR, wantR := bulk.RegSnapshot(), step.RegSnapshot()
				for i := range wantR {
					if gotR[i] != wantR[i] {
						t.Fatalf("trial %d %v k=%d: reg[%d] = %d, want %d", trial, cfg, k, i, gotR[i], wantR[i])
					}
				}
				for i := range ten.OutputSlots {
					if bulk.PeekOutput(i) != step.PeekOutput(i) {
						t.Fatalf("trial %d %v k=%d: output %d diverges", trial, cfg, k, i)
					}
				}
			}
		}
	}
}
