package kernel

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/oim"
	"rteaal/internal/testbench"
	"rteaal/internal/wire"
)

// bulkCounterTensor builds a small deterministic accumulator design —
// count' = count + step — whose trajectory under known pokes is easy to
// predict, for the watch and stimulus tests.
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
// written directly against the poke/step/peek surface: poke the cycle's
// stimulus into every lane, step, evaluate the watch against the same
// coordinates the run loops read. Every resident run path must be
// bit-identical to it.
func refBatchBulk(b *Batch, spec RunSpec) (ran int, stopped bool) {
	for i := 0; i < spec.Cycles; i++ {
		if spec.Stim != nil {
			for lane := 0; lane < b.Lanes(); lane++ {
				for in := range b.Tensor().InputSlots {
					pokeLane(b, lane, in, spec.Stim.Value(spec.From+int64(i), lane, in))
				}
			}
		}
		b.Run(1)
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
		s = append(s, laneRegs(b, lane)...)
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
		ten := compileTensor(t, g)
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
							pokeLane(bulk, lane, i, v)
							pokeLane(step, lane, i, v)
						}
					}
					bulk.Run(k)
					for c := 0; c < k; c++ {
						step.Run(1)
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

// TestBatchRunBulkStimulus checks that a lane- and cycle-dependent
// stimulus driven inside one resident run, from a non-zero From, is
// bit-identical to poking the same values by hand between single steps, for
// every schedule/worker shape, unwatched (each block runs all its cycles
// alone) and watched (lock-step), with the lanes spanning more than one
// block per worker so every block's lane offset is exercised.
func TestBatchRunBulkStimulus(t *testing.T) {
	ten := bulkCounterTensor(t)
	const cycles, from = 12, 1000
	stim := testbench.Func(func(cycle int64, lane, input int) uint64 {
		return uint64(cycle*7) ^ uint64(lane*13+input)
	})
	for _, lanes := range []int{5, 600} {
		for _, packing := range []bool{false, true} {
			prog, err := NewProgram(ten, Config{Kind: PSU})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				for _, watch := range []*Watch{nil, {Lane: lanes - 1, OutIdx: 0, Pred: func(v uint64) bool { return v > 200 }}} {
					b, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: workers, Packing: packing})
					if err != nil {
						t.Fatal(err)
					}
					ref, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: 1, Packing: packing})
					if err != nil {
						t.Fatal(err)
					}
					spec := RunSpec{Cycles: cycles, Stim: stim, From: from, Watch: watch}
					ran, stopped := b.RunBulk(spec)
					wantRan, wantStopped := refBatchBulk(ref, spec)
					if ran != wantRan || stopped != wantStopped {
						t.Fatalf("lanes=%d packing=%v workers=%d watched=%v: RunBulk = (%d,%v), reference (%d,%v)",
							lanes, packing, workers, watch != nil, ran, stopped, wantRan, wantStopped)
					}
					got, want := batchState(b), batchState(ref)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("lanes=%d packing=%v workers=%d watched=%v: state[%d] = %d, want %d",
								lanes, packing, workers, watch != nil, i, got[i], want[i])
						}
					}
					b.Close()
					ref.Close()
				}
			}
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
					pokeLane(b, lane, 0, uint64(lane)) // lane 3 counts by 3
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
					if got, want := laneRegs(b, lane)[0], uint64(lane*ran)&0xff; got != want {
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
		pokeLane(b, 0, 0, 1)
		b.Run(4)
		if got := laneRegs(b, 0)[0]; got != 4 {
			t.Fatalf("workers=%d: reg = %d after Run(4), want 4", workers, got)
		}
		b.Run(0)
		b.Run(-3)
		if ran, stopped := b.RunBulk(RunSpec{Cycles: 0}); ran != 0 || stopped {
			t.Fatalf("workers=%d: RunBulk(0) = (%d,%v)", workers, ran, stopped)
		}
		if got := laneRegs(b, 0)[0]; got != 4 {
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
		ten := compileTensor(t, g)
		for _, cfg := range allConfigs() {
			bulk, err := newEngine(ten, cfg)
			if err != nil {
				t.Fatal(err)
			}
			step, err := newEngine(ten, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stim := rand.New(rand.NewSource(int64(trial) + 17))
			for _, k := range []int{1, 4, 7} {
				for i := range ten.InputSlots {
					v := stim.Uint64()
					pokeInput(bulk, i, v)
					pokeInput(step, i, v)
				}
				if ran, stopped := RunEngine(bulk, RunSpec{Cycles: k}); ran != k || stopped {
					t.Fatalf("trial %d %v: RunEngine(%d) = (%d,%v)", trial, cfg, k, ran, stopped)
				}
				for c := 0; c < k; c++ {
					step.Step()
				}
				gotR, wantR := regsOf(bulk), regsOf(step)
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
