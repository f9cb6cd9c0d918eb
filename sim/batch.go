package sim

import "rteaal/internal/kernel"

// Batch simulates n independent stimuli of one [Design] lock-step: every
// Step settles and commits all lanes through a single schedule, with the
// value state held in structure-of-arrays layout (one lane-vector per LI
// slot). Lanes never interact — lane l of a batch produces exactly the trace
// a dedicated [Session] fed the same inputs would — but amortise all control
// flow and walk memory contiguously, the first step toward SIMD batching.
// The settle/commit loops run a batch-specialised schedule the design
// compiles once and every batch shares — operands as row indices, redundant
// masks elided, bounds checks eliminated — over state held in blocks of at
// most 256 lanes, and when minted by [Design.NewBatchParallel] the lanes
// split evenly over persistent worker goroutines, whole blocks per
// worker, with one dispatch and one join per run and a barrier per cycle only
// while a watch is active. Slots the compiler proves 1-bit wide are
// additionally bit-packed — lane i of a block is bit i of the slot's row —
// so one word-wide op evaluates 64 lanes; see [Batch.Packed].
//
// A Batch is not safe for concurrent method calls; mint one per goroutine.
type Batch struct {
	d     *Design
	b     *kernel.Batch
	cycle int64
}

// Design returns the compiled design this batch simulates.
func (b *Batch) Design() *Design { return b.d }

// Lanes reports the batch width n.
func (b *Batch) Lanes() int { return b.b.Lanes() }

// Workers reports how many persistent lane workers the batch runs on
// (1 = the sequential in-caller path); see [Design.NewBatchParallel].
func (b *Batch) Workers() int { return b.b.Workers() }

// Packed reports whether the batch runs the bit-packed layout: true when
// the width analysis proved at least one slot 1-bit wide and packing it
// pays. Packing is a layout, not a semantics: lanes produce exactly the
// trace a dedicated [Session] would either way.
func (b *Batch) Packed() bool { return b.b.Packed() }

// Close stops a parallel batch's worker goroutines. Optional — an
// unreachable batch is cleaned up by the garbage collector — but
// deterministic; a no-op for sequential batches. The batch must not be used
// afterwards.
func (b *Batch) Close() { b.b.Close() }

// Cycle reports completed cycles since construction or Reset.
func (b *Batch) Cycle() int64 { return b.cycle }

// Poke drives a primary input of one lane by name.
func (b *Batch) Poke(lane int, name string, v uint64) error {
	if err := checkLane(lane, b.b.Lanes()); err != nil {
		return err
	}
	i, err := b.d.port(name, kernel.SignalInput)
	if err != nil {
		return err
	}
	b.PokeIndex(lane, i, v)
	return nil
}

// PokeAll drives a primary input to the same value in every lane.
func (b *Batch) PokeAll(name string, v uint64) error {
	i, err := b.d.port(name, kernel.SignalInput)
	if err != nil {
		return err
	}
	for lane := 0; lane < b.b.Lanes(); lane++ {
		b.PokeIndex(lane, i, v)
	}
	return nil
}

// Peek reads a primary output of one lane by name as sampled at the last
// settle.
func (b *Batch) Peek(lane int, name string) (uint64, error) {
	if err := checkLane(lane, b.b.Lanes()); err != nil {
		return 0, err
	}
	i, err := b.d.port(name, kernel.SignalOutput)
	if err != nil {
		return 0, err
	}
	return b.b.PeekOutput(lane, i), nil
}

// PokeIndex drives the i-th primary input of one lane (order of
// [Design.Inputs]); the allocation-free fast path.
func (b *Batch) PokeIndex(lane, i int, v uint64) { b.b.PokeSlot(lane, b.d.tensor.InputSlots[i], v) }

// PeekIndex reads the i-th primary output of one lane (order of
// [Design.Outputs]).
func (b *Batch) PeekIndex(lane, i int) uint64 { return b.b.PeekOutput(lane, i) }

// Registers copies one lane's committed register values. It panics if lane
// is out of range.
func (b *Batch) Registers(lane int) []uint64 {
	if err := checkLane(lane, b.b.Lanes()); err != nil {
		panic(err)
	}
	regs := make([]uint64, len(b.d.tensor.RegSlots))
	for i, r := range b.d.tensor.RegSlots {
		regs[i] = b.b.PeekSlot(lane, r.Q)
	}
	return regs
}

// pokeSlot, peekSlot and peekOutput are the batch as a [Testbench]'s dut.
func (b *Batch) pokeSlot(lane int, slot int32, v uint64) { b.b.PokeSlot(lane, slot, v) }
func (b *Batch) peekSlot(lane int, slot int32) uint64    { return b.b.PeekSlot(lane, slot) }
func (b *Batch) peekOutput(lane, idx int) uint64         { return b.b.PeekOutput(lane, idx) }

// Step advances every lane one clock cycle: a one-cycle run.
func (b *Batch) Step() { b.runBulk(kernel.RunSpec{Cycles: 1}) }

// Run advances every lane n cycles as one bulk run of the batch engine
// ([kernel.Batch.RunBulk]), handed over by the chunker every [Testbench]
// run goes through: one worker dispatch and one join for the whole run, so
// parallel batches pay per-cycle coordination once per run instead of once
// per cycle. Bit-identical to n calls of [Batch.Step].
func (b *Batch) Run(n int64) { advance(b, n, nil, nil, nil) }

// runBulk executes a [kernel.RunSpec] against the batch engine, advancing
// the cycle counter by the completed count — the funnel [Batch.Step],
// [Batch.Run] and [Testbench] runs drain into. The error is always nil: a
// batch has no closed state and records no waveform.
func (b *Batch) runBulk(spec kernel.RunSpec) (ran int, stopped bool, err error) {
	ran, stopped = b.b.RunBulk(spec)
	b.cycle += int64(ran)
	return ran, stopped, nil
}

// Reset restores every lane to the initial state.
func (b *Batch) Reset() {
	b.b.Reset()
	b.cycle = 0
}
