package kernel

import (
	"runtime"
	"slices"
	"sync/atomic"
)

// This file is the multi-cycle bulk-run vocabulary shared by every engine:
// scheduled pokes, early-stop watches, the one per-cycle loop ([RunEngine])
// every engine without resident workers runs, and the spin barrier the
// [Workers] group synchronises on inside a resident k-cycle run. The point
// of the bulk primitives is amortisation — one command dispatch and one join
// per k cycles instead of per cycle — the Manticore-style bulk-synchronous
// argument applied to Batch and repcut.Instance, which share that group.
// No engine cuts a run short or polls a host probe; the host decides where
// runs end by the specs it hands over.

// PlannedPoke is one scheduled LI write inside a bulk run: at the start of
// cycle Cycle (0-based, relative to the run), before the cycle settles,
// Value is written to Slot of Lane, masked to the slot's width. A plan
// applied by [Batch.RunBulk] or [Engine.RunBulk] is bit-identical to
// poking by hand between single steps. Lane is ignored by scalar engines.
type PlannedPoke struct {
	Cycle int
	Lane  int
	Slot  int32
	Value uint64
}

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

// RunSpec describes one bulk run: up to Cycles cycles, with Pokes applied
// at their scheduled cycles (entries at or past Cycles are never reached)
// and an optional early-stop Watch. An engine runs the spec it is handed in
// one dispatch and polls nothing: where a longer run is cut — for a
// stimulus plan or a cancellation probe — is the host's choice
// (sim.Testbench).
type RunSpec struct {
	Cycles int
	Pokes  []PlannedPoke
	Watch  *Watch
}

// CancelCheckCycles is the most cycles a host hands one run while a
// cancellation probe is installed: a cancelled run overshoots its
// cancellation point by at most this many cycles. Coarse enough that the
// poll cost vanishes against the per-run work, fine enough that deadline
// overshoot stays in the microsecond range for every engine.
const CancelCheckCycles = 1024

// SortedPokes returns pokes ordered by Cycle, sorting a copy only when the
// caller's slice is out of order (plans built cycle-by-cycle already are).
func SortedPokes(pokes []PlannedPoke) []PlannedPoke {
	if slices.IsSortedFunc(pokes, func(a, b PlannedPoke) int { return a.Cycle - b.Cycle }) {
		return pokes
	}
	pokes = slices.Clone(pokes)
	slices.SortStableFunc(pokes, func(a, b PlannedPoke) int { return a.Cycle - b.Cycle })
	return pokes
}

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
// per-cycle loop: apply the cycle's pokes, step, evaluate the watch. It is
// the [Engine.RunBulk] of every engine without a resident run loop of its
// own (all seven scalar kernels), and the reference semantics the resident
// loops must match.
func RunEngine(eng Engine, spec RunSpec) (ran int, stopped bool) {
	pokes := SortedPokes(spec.Pokes)
	pi := 0
	for i := 0; i < spec.Cycles; i++ {
		for pi < len(pokes) && pokes[pi].Cycle <= i {
			eng.PokeSlot(pokes[pi].Slot, pokes[pi].Value)
			pi++
		}
		eng.Step()
		ran++
		if w := spec.Watch; w != nil && w.Accepts(w.Sample(eng)) {
			return ran, true
		}
	}
	return ran, false
}

// Barrier is a reusable generation-counter spin barrier for a fixed party
// count: the per-cycle synchronisation point of a [Workers.Lockstep] run.
// The last arriver resets the count and bumps the generation;
// everyone else spins (yielding, so hosts with fewer CPUs than parties make
// progress) until the generation moves. The yield is cheap only on a plain
// goroutine: never wait here on one locked to an OS thread (see
// [NewWorkers]). Atomic operations order everything published before
// a party's Await before everything any party does after it.
type Barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

// Init sets the party count. Must be called before the first Await and
// never while a wait is in flight.
func (b *Barrier) Init(n int) { b.n = int32(n) }

// Await blocks until all n parties have arrived, then releases them.
func (b *Barrier) Await() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		// Reset before publishing the new generation: a released party may
		// re-enter Await for the next cycle immediately.
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins >= 64 {
			runtime.Gosched()
		}
	}
}
