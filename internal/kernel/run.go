package kernel

import "rteaal/internal/testbench"

// This file is the multi-cycle bulk-run vocabulary shared by every engine:
// the run spec with the stimulus it drives, early-stop watches, the one
// per-cycle loop ([RunEngine]) every engine without resident workers runs.
// The point
// of the bulk primitives is amortisation — one command dispatch and one join
// per k cycles instead of per cycle — the Manticore-style bulk-synchronous
// argument applied to Batch and repcut.Instance, which share that group.
// No engine cuts a run short or polls a host probe; the host decides where
// runs end by the specs it hands over.

// Watch is an early-stop condition evaluated after every completed cycle of
// a bulk run: the run ends the first cycle Pred accepts the watched value.
// OutIdx >= 0 watches the OutIdx-th primary output as sampled at that
// cycle's settle (outputs may alias register Q slots whose LI value changes
// at commit, so output watches must read the sampled outputs, not the
// slot); OutIdx < 0 watches the LI coordinate Slot after commit. A nil Pred
// accepts the first cycle.
//
// During a parallel bulk run Pred is called from the worker goroutine that
// owns the watched lane or partition — once per completed cycle, strictly
// ordered, and happens-before the run's return — never concurrently with
// itself or with the caller.
type Watch struct {
	Lane   int
	Slot   int32
	OutIdx int
	Pred   func(uint64) bool
}

// RunSpec describes one bulk run: up to Cycles cycles, an optional
// stimulus and an optional early-stop Watch. At the top of run cycle i,
// before it settles, every primary input of every lane is driven with
// Stim.Value(From+i, lane, input), masked to the input's width: From is the
// absolute cycle the run's first cycle stands for, input indexes
// [oim.Tensor.InputSlots], and a scalar engine is lane 0. A nil Stim drives
// nothing, so inputs hold what was last poked. An engine runs the spec it
// is handed in one dispatch and polls nothing: where a longer run is cut —
// for a cancellation probe — is the host's choice (sim.Testbench).
//
// During a parallel run Stim.Value is called from the worker goroutines,
// concurrently across lane shards and partitions and never after the run
// returns, so it must be safe for concurrent use.
type RunSpec struct {
	Cycles int
	Stim   testbench.Stimulus
	From   int64
	Watch  *Watch
}

// CancelCheckCycles is the most cycles a host hands one run while a
// cancellation probe is installed: a cancelled run overshoots its
// cancellation point by at most this many cycles. Coarse enough that the
// poll cost vanishes against the per-run work, fine enough that deadline
// overshoot stays in the microsecond range for every engine.
const CancelCheckCycles = 1024

// Sample reads the watched value from a scalar engine: the sampled output
// for OutIdx >= 0, the LI coordinate otherwise.
func (w *Watch) Sample(eng Engine) uint64 {
	if w.OutIdx >= 0 {
		return eng.PeekOutput(w.OutIdx)
	}
	return eng.PeekSlot(w.Slot)
}

// Accepts evaluates the watch predicate against a sampled value.
func (w *Watch) Accepts(v uint64) bool { return w.Pred == nil || w.Pred(v) }

// RunEngine executes a [RunSpec] against any scalar engine with a plain
// per-cycle loop: drive the cycle's stimulus, step, evaluate the watch. It
// is the [Engine.RunBulk] of every engine without a resident run loop of
// its own (all seven scalar kernels), and the reference semantics the
// resident loops must match.
func RunEngine(eng Engine, spec RunSpec) (ran int, stopped bool) {
	var inSlots []int32
	if spec.Stim != nil {
		inSlots = eng.Tensor().InputSlots
	}
	for i := 0; i < spec.Cycles; i++ {
		for in, slot := range inSlots {
			eng.PokeSlot(slot, spec.Stim.Value(spec.From+int64(i), 0, in))
		}
		eng.Step()
		ran++
		if w := spec.Watch; w != nil && w.Accepts(w.Sample(eng)) {
			return ran, true
		}
	}
	return ran, false
}
