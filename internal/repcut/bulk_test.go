package repcut

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/testbench"
	"rteaal/internal/wire"
)

// bulkCounterGraph builds the deterministic two-register design of the
// bulk tests: two accumulators over independent inputs (so a 2-partition
// plan cuts cleanly between them), count' = count + step per partition.
func bulkCounterGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "bulkpair"}
	inA := g.AddInput("stepA", 8)
	inB := g.AddInput("stepB", 8)
	a := g.AddReg("a", 8, 0)
	b := g.AddReg("b", 8, 0)
	g.SetRegNext(a, g.AddOp(wire.Add, 8, a, inA))
	g.SetRegNext(b, g.AddOp(wire.Add, 8, b, inB))
	g.AddOutput("countA", a)
	g.AddOutput("countB", b)
	return g
}

// oneRegGraph is a single accumulator, count' = count + step, whose output
// aliases the register: any plan clamps it to one partition, so its
// instance runs the lock-step loop on a group of one.
func oneRegGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "onereg"}
	step := g.AddInput("step", 8)
	r := g.AddReg("count", 8, 0)
	g.SetRegNext(r, g.AddOp(wire.Add, 8, r, step))
	g.AddOutput("count", r)
	return g
}

// TestInstanceRunCyclesMatchesStep drives two identical partitioned
// instances — one through RunCycles(k) chunks, one through k single Steps —
// with fresh pokes between every chunk: the resident run loop with its
// atomic barrier and double-buffered RUM exchange must leave chunk
// boundaries invisible, including RunCycles(0) no-ops and interleaved
// single Steps after a bulk run.
func TestInstanceRunCyclesMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1123))
	chunks := []int{1, 4, 0, 6, 2, 9, 3}
	for trial := 0; trial < 6; trial++ {
		g := dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: 9, Ops: 120, Consts: 5, MaxWidth: 16, MuxBias: 0.3})
		ten := compile(t, g)
		for _, parts := range []int{2, 3} {
			_, bulk := instantiate(t, ten, parts, kernel.PSU)
			_, step := instantiate(t, ten, parts, kernel.PSU)
			stim := rand.New(rand.NewSource(int64(trial)*13 + 7))
			for ci, k := range chunks {
				for i := range ten.InputSlots {
					v := stim.Uint64()
					pokeInput(bulk, i, v)
					pokeInput(step, i, v)
				}
				bulk.RunCycles(k)
				for c := 0; c < k; c++ {
					step.Step()
				}
				// An interleaved single Step exercises the inter-run
				// invariant the epilogue pull maintains.
				bulk.Step()
				step.Step()
				br, sr := regsOf(bulk), regsOf(step)
				for i := range sr {
					if br[i] != sr[i] {
						t.Fatalf("trial %d parts %d chunk %d (k=%d): reg[%d] = %d, want %d",
							trial, parts, ci, k, i, br[i], sr[i])
					}
				}
				for i := range ten.OutputSlots {
					if bulk.PeekOutput(i) != step.PeekOutput(i) {
						t.Fatalf("trial %d parts %d chunk %d (k=%d): output %d diverges",
							trial, parts, ci, k, i)
					}
				}
			}
		}
	}
}

// TestInstanceRunBulkStimulus drives a lane- and cycle-dependent stimulus,
// from a non-zero From, inside one resident run and checks it against
// poking the same values by hand between single steps of the unpartitioned
// engine: each partition must drive every input its cone reads,
// on the two-accumulator design (every input read by one partition), on
// random designs (inputs shared between cones), and on the one-register
// design a 4-partition plan clamps to one partition. A watch that never
// accepts records output 0 as sampled in every cycle of the run, which
// must match the engine's cycle for cycle.
func TestInstanceRunBulkStimulus(t *testing.T) {
	const cycles, from = 10, 500
	stim := testbench.Func(func(cycle int64, lane, input int) uint64 {
		return uint64(cycle*5) ^ uint64(lane*11+input*3)
	})
	rng := rand.New(rand.NewSource(37))
	type row struct {
		g     *dfg.Graph
		parts []int
	}
	rows := []row{{bulkCounterGraph(), []int{2, 3}}, {oneRegGraph(), []int{4}}}
	for range 3 {
		g, err := dfg.Optimize(dfg.RandomGraph(rng, dfg.RandomParams{
			Inputs: 4, Regs: 9, Ops: 120, Consts: 5, MaxWidth: 16, MuxBias: 0.3}), dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{g, []int{2, 3}})
	}
	for gi, r := range rows {
		ten := build(t, r.g)
		for _, parts := range r.parts {
			_, bulk := instantiate(t, ten, parts, kernel.PSU)
			ref, err := newEngine(ten, kernel.Config{Kind: kernel.PSU})
			if err != nil {
				t.Fatal(err)
			}
			var trace []uint64
			spec := kernel.RunSpec{Cycles: cycles, Stim: stim, From: from}
			if len(ten.OutputSlots) > 0 {
				spec.Watch = &kernel.Watch{Pred: func(v uint64) bool { trace = append(trace, v); return false }}
			}
			ran, stopped := bulk.RunBulk(spec)
			if ran != cycles || stopped {
				t.Fatalf("graph %d parts %d: RunBulk = (%d,%v), want (%d,false)", gi, parts, ran, stopped, cycles)
			}
			for i := 0; i < cycles; i++ {
				for in := range ten.InputSlots {
					pokeInput(ref, in, stim.Value(from+int64(i), 0, in))
				}
				ref.Step()
				if trace != nil && trace[i] != ref.PeekOutput(0) {
					t.Fatalf("graph %d parts %d: cycle %d output 0 = %d, want %d", gi, parts, i, trace[i], ref.PeekOutput(0))
				}
			}
			br, rr := regsOf(bulk), regsOf(ref)
			for i := range rr {
				if br[i] != rr[i] {
					t.Fatalf("graph %d parts %d: reg[%d] = %d, want %d", gi, parts, i, br[i], rr[i])
				}
			}
			for i := range ten.OutputSlots {
				if bulk.PeekOutput(i) != ref.PeekOutput(i) {
					t.Fatalf("graph %d parts %d: output %d diverges", gi, parts, i)
				}
			}
		}
	}
}

// TestInstanceRunBulkWatchStops pins the partitioned early-stop contract:
// the watch is evaluated by the partition owning the watched coordinate,
// every partition stops at the accepting cycle, and a watch accepting on
// the final cycle still reports stopped.
func TestInstanceRunBulkWatchStops(t *testing.T) {
	ten := build(t, bulkCounterGraph())
	for _, parts := range []int{2, 3} {
		for _, tc := range []struct {
			name        string
			cycles      int
			accept      uint64
			wantRan     int
			wantStopped bool
		}{
			// Output countB samples at settle, before that cycle's commit:
			// after completed cycle i (1-based) it reads (i-1)*stepB, so
			// 2*(i-1)==8 stops at the end of cycle 5.
			{"mid-run", 20, 8, 5, true},
			{"last-cycle", 5, 8, 5, true},
			{"never", 7, 3, 7, false}, // countB is always even
		} {
			_, in := instantiate(t, ten, parts, kernel.PSU)
			pokeInput(in, 0, 3) // stepA
			pokeInput(in, 1, 2) // stepB
			accept := tc.accept
			w := &kernel.Watch{OutIdx: 1, Pred: func(v uint64) bool { return v == accept }}
			ran, stopped := in.RunBulk(kernel.RunSpec{Cycles: tc.cycles, Watch: w})
			if ran != tc.wantRan || stopped != tc.wantStopped {
				t.Fatalf("parts %d %s: RunBulk = (%d,%v), want (%d,%v)",
					parts, tc.name, ran, stopped, tc.wantRan, tc.wantStopped)
			}
			// Both partitions advanced exactly ran cycles.
			regs := regsOf(in)
			if got, want := regs[0], uint64(3*ran)&0xff; got != want {
				t.Fatalf("parts %d %s: regA = %d after %d cycles, want %d", parts, tc.name, got, ran, want)
			}
			if got, want := regs[1], uint64(2*ran)&0xff; got != want {
				t.Fatalf("parts %d %s: regB = %d after %d cycles, want %d", parts, tc.name, got, ran, want)
			}
		}
	}

	// The one-register design on one partition: an output watch and a slot
	// watch each stop it at the cycle they stop the unpartitioned engine,
	// and its output, read through the owner partition, is 0 after Reset.
	one := build(t, oneRegGraph())
	for _, w := range []*kernel.Watch{
		{OutIdx: 0, Pred: func(v uint64) bool { return v == 8 }},
		{OutIdx: -1, Slot: one.RegSlots[0].Q, Pred: func(v uint64) bool { return v == 8 }},
	} {
		plan, in := instantiate(t, one, 4, kernel.PSU)
		if n := plan.Stats().Partitions; n != 1 {
			t.Fatalf("one-register plan has %d partitions, want 1", n)
		}
		ref, err := newEngine(one, kernel.Config{Kind: kernel.PSU})
		if err != nil {
			t.Fatal(err)
		}
		pokeInput(in, 0, 2)
		pokeInput(ref, 0, 2)
		spec := kernel.RunSpec{Cycles: 20, Watch: w}
		ran, stopped := in.RunBulk(spec)
		wantRan, wantStopped := ref.RunBulk(spec)
		if ran != wantRan || !stopped || !wantStopped {
			t.Fatalf("one partition, watch %+v: RunBulk = (%d,%v), engine (%d,%v)", *w, ran, stopped, wantRan, wantStopped)
		}
		if got, want := in.PeekOutput(0), ref.PeekOutput(0); got != want || got == 0 {
			t.Fatalf("one partition, watch %+v: output = %d, engine %d (want equal, non-zero)", *w, got, want)
		}
		in.Reset()
		if got := in.PeekOutput(0); got != 0 {
			t.Fatalf("one partition: output after Reset = %d, want 0", got)
		}
	}
}
