package kernel

import (
	"fmt"

	"rteaal/internal/faultinject"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// Batch simulates n independent input-vectors of one design lock-step
// through a single settle/commit schedule. The layer-input tensor is held in
// structure-of-arrays layout — one lane-vector per LI slot — so each
// operation runs as a tight loop over lanes touching two or three contiguous
// rows, the memory shape a vectorising compiler (or a future SIMD/GPU
// backend) wants.
//
// The schedule is the program and the batch is state. The program is the
// batch-specialised compilation of the fully unrolled TI tape (see
// batch_sched.go), built once per [Program] and shared read-only: its
// instructions name rows, redundant output masks are elided, the loop bodies
// are bounds-check-free, and the register commit is a list of row moves
// ordered so that each runs in place. The state is a list of lane blocks of
// at most 64*blockWords lanes, each owning a contiguous wide store — a row
// of its lanes per slot that has a lane vector — and, under a packing
// schedule, a packed store with a row of blockWords words per packed slot,
// lane i of the block in bit i. The schedule recycles the rows of both
// stores by liveness, so slots whose values are never live at once share a
// row. Levelization guarantees in-layer writes never feed in-layer reads, so
// results go straight to their rows in every lane.
//
// A batch built over a packing schedule keeps every slot the schedule
// packed in the packed store only, so the packed loop bodies evaluate 64
// lanes per word-wide op. Each slot has one home: a packed slot owns a wide
// row only when a schedule instruction reads or writes its wide view, and
// Poke/Peek route through the packed layout transparently. The
// [Batch.SettleReference] oracle keeps lane vectors of its own and meets the
// stores only at home rows, so it runs on every layout.
//
// A batch shards its lanes over the workers of one [Workers] group: the
// lanes split evenly, every worker owns the whole blocks of its share and
// runs the full schedule over each — lanes never interact, and no two blocks
// share a word of either store, so an unwatched run needs no synchronisation
// between dispatch and join. A one-worker batch is a group of one: its
// blocks run on the caller's goroutine. Call [Batch.Close] to stop the
// workers deterministically; an unreachable batch's group is stopped by the
// garbage collector.
type Batch struct {
	t     *oim.Tensor
	sched *batchSchedule
	lanes int

	// The state, each array cut into the blocks' shares back to back: wide
	// rows, packed rows (packing schedules only) and the sampled outputs.
	wide []uint64
	pk   [][blockWords]uint64
	outs []uint64

	blocks  []laneBlock
	blockOf []int32 // blockOf[lane] indexes the block holding the lane
	own     []int   // worker w owns blocks[own[w]:own[w+1]]
	ws      *Workers

	ref []uint64 // SettleReference's lane vector per LI coordinate, slots*lanes, allocated on first use

	// The per-worker bodies, bound once so a dispatch allocates nothing,
	// and the run they execute, shared read-only by all workers until the
	// dispatch joins (each block drives only its own lanes).
	settleJob, runJob func(w int)
	cycleJob          func(w, i int) bool
	cur               RunSpec
}

// laneBlock is the state of n consecutive lanes from lane lo on: the
// block's share of the batch's three arrays. Row r of the wide store is
// wide[r*n:][:n], output i as last sampled outs[i*n:][:n]. Blocks share no
// memory, so workers owning different blocks share no mutable state.
type laneBlock struct {
	lo, n int
	wide  []uint64
	pk    [][blockWords]uint64
	outs  []uint64
}

// settle runs the schedule over one block, segment by segment, and samples
// the primary outputs. The sampled outputs are always wide: a packed output
// unpacks on sampling, so PeekOutput is layout-blind.
func (b *Batch) settle(blk *laneBlock) {
	s, n := b.sched, blk.n
	from := 0
	for _, end := range s.segEnds {
		switch seg := s.insts[from:end]; seg[0].code.segment() {
		case segWide:
			runOps(seg, s.ext, blk.wide, n)
		case segWordWide:
			runPackedOps(seg, s.ext, blk.pk)
		default:
			runCrossings(seg, blk.wide, blk.pk, n)
		}
		from = end
	}
	for i, slot := range b.t.OutputSlots {
		dst := blk.outs[i*n:][:n]
		if row, packed := s.home(slot); packed {
			unpackLanes(dst, blk.pk[row][:])
		} else {
			copy(dst, blk.wide[int(row)*n:][:n])
		}
	}
}

// step runs run cycle i of one block: the stimulus on its lanes' inputs,
// the schedule, the register commit.
func (b *Batch) step(blk *laneBlock, i int) {
	if stim := b.cur.Stim; stim != nil {
		cycle := b.cur.From + int64(i)
		for in, slot := range b.t.InputSlots {
			for l := 0; l < blk.n; l++ {
				b.poke(blk, l, slot, stim.Value(cycle, blk.lo+l, in))
			}
		}
	}
	b.settle(blk)
	runCommits(b.sched.commits, blk.wide, blk.pk, blk.n)
}

// poke writes lane l of the block at the slot's home row, masked to the
// slot's width.
func (b *Batch) poke(blk *laneBlock, l int, slot int32, v uint64) {
	if row, packed := b.sched.home(slot); packed {
		pkSet(&blk.pk[row], l, v)
	} else {
		blk.wide[int(row)*blk.n+l] = v & b.t.Masks[slot]
	}
}

// peek reads lane l of the block at the slot's home row.
func (b *Batch) peek(blk *laneBlock, l int, slot int32) uint64 {
	row, packed := b.sched.home(slot)
	if packed {
		return pkGet(&blk.pk[row], l)
	}
	return blk.wide[int(row)*blk.n+l]
}

// at locates a lane: its block and its index there.
func (b *Batch) at(lane int) (*laneBlock, int) {
	blk := &b.blocks[b.blockOf[lane]]
	return blk, lane - blk.lo
}

// The three bodies a batch hands its group. runShard is the resident loop
// of an unwatched run: each of the worker's blocks in turn runs all k
// cycles, with no synchronisation at all, so a block's stores stay cached
// from one cycle to the next. cycleShard is one cycle of a watched run,
// which the group executes in lock-step so every lane stops at the cycle the
// watch accepted; the worker owning the watched lane evaluates it — primary
// outputs from the settle-sampled outs (an output slot may alias a register Q
// whose value moves at commit), everything else from the slot's home row.
func (b *Batch) settleShard(w int) {
	for bi := b.own[w]; bi < b.own[w+1]; bi++ {
		b.settle(&b.blocks[bi])
	}
}

func (b *Batch) runShard(w int) {
	for bi := b.own[w]; bi < b.own[w+1]; bi++ {
		for i := 0; i < b.cur.Cycles; i++ {
			b.step(&b.blocks[bi], i)
		}
	}
}

func (b *Batch) cycleShard(w, i int) bool {
	for bi := b.own[w]; bi < b.own[w+1]; bi++ {
		b.step(&b.blocks[bi], i)
	}
	watch := b.cur.Watch
	if bi := int(b.blockOf[watch.Lane]); bi < b.own[w] || bi >= b.own[w+1] {
		return false
	}
	blk, l := b.at(watch.Lane)
	if watch.OutIdx >= 0 {
		return watch.Accepts(blk.outs[watch.OutIdx*blk.n+l])
	}
	return watch.Accepts(b.peek(blk, l, watch.Slot))
}

func newBatch(t *oim.Tensor, sched *batchSchedule, lanes, workers int) (*Batch, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("kernel: batch needs at least 1 lane, got %d", lanes)
	}
	workers = min(max(workers, 1), lanes)
	b := &Batch{
		t:       t,
		sched:   sched,
		lanes:   lanes,
		wide:    make([]uint64, sched.wideRows*lanes),
		outs:    make([]uint64, len(t.OutputSlots)*lanes),
		blockOf: make([]int32, lanes),
		own:     []int{0},
	}
	// Lanes split evenly over the workers, and a worker's share evenly over
	// as few blocks as hold it.
	lo := 0
	for w := 0; w < workers; w++ {
		share := lanes / workers
		if w < lanes%workers {
			share++
		}
		for nb := (share + 64*blockWords - 1) / (64 * blockWords); nb > 0; nb-- {
			n := (share + nb - 1) / nb
			for l := lo; l < lo+n; l++ {
				b.blockOf[l] = int32(len(b.blocks))
			}
			b.blocks = append(b.blocks, laneBlock{
				lo:   lo,
				n:    n,
				wide: b.wide[sched.wideRows*lo:][:sched.wideRows*n],
				outs: b.outs[len(t.OutputSlots)*lo:][:len(t.OutputSlots)*n],
			})
			lo += n
			share -= n
		}
		b.own = append(b.own, len(b.blocks))
	}
	if sched.packedRow != nil {
		b.pk = make([][blockWords]uint64, sched.packedRows*len(b.blocks))
		for i := range b.blocks {
			b.blocks[i].pk = b.pk[sched.packedRows*i:][:sched.packedRows]
		}
	}
	b.ws = NewWorkers(workers)
	b.settleJob, b.runJob, b.cycleJob = b.settleShard, b.runShard, b.cycleShard
	b.Reset()
	return b, nil
}

// Lanes reports the batch width.
func (b *Batch) Lanes() int { return b.lanes }

// Workers reports the effective worker count (1 = sequential).
func (b *Batch) Workers() int { return len(b.own) - 1 }

// Packed reports whether the batch runs the bit-packed layout: true when
// the schedule was compiled with packing and the design has at least one
// provably-1-bit slot.
func (b *Batch) Packed() bool { return b.pk != nil }

// Tensor returns the underlying OIM.
func (b *Batch) Tensor() *oim.Tensor { return b.t }

// Close stops a parallel batch's worker goroutines. Optional — an
// unreachable batch is cleaned up by the garbage collector — but
// deterministic. The batch must not be stepped afterwards: Settle, Step and
// Run panic on a closed batch.
func (b *Batch) Close() { b.ws.Close() }

// Reset restores every lane to the initial state, filling a preloaded slot
// in each store that holds a row of it (a packed constant that wide bodies
// read in place has two).
func (b *Batch) Reset() {
	clear(b.wide)
	clear(b.pk)
	clear(b.outs)
	for _, c := range b.t.ConstSlots {
		b.preload(c.Slot, c.Value)
	}
	for _, r := range b.t.RegSlots {
		b.preload(r.Q, r.Init)
	}
}

// preload sets every lane of a slot to v (non-zero: the stores were just
// cleared) in each row the slot has.
func (b *Batch) preload(slot int32, v uint64) {
	if v == 0 {
		return
	}
	wideRow, packedRow := int(b.sched.wideRow[slot]), -1
	if b.pk != nil {
		packedRow = int(b.sched.packedRow[slot])
	}
	for i := range b.blocks {
		blk := &b.blocks[i]
		if wideRow >= 0 {
			row := blk.wide[wideRow*blk.n:][:blk.n]
			for l := range row {
				row[l] = v
			}
		}
		if packedRow >= 0 {
			for w := range blk.pk[packedRow] {
				blk.pk[packedRow][w] = ^uint64(0) // a packed slot's v is 1; bits past the lanes are garbage anyway
			}
		}
	}
}

// PokeInput drives the idx-th primary input of one lane.
func (b *Batch) PokeInput(lane, idx int, v uint64) { b.PokeSlot(lane, b.t.InputSlots[idx], v) }

// PeekOutput reads the idx-th primary output of one lane as sampled at the
// most recent Settle.
func (b *Batch) PeekOutput(lane, idx int) uint64 {
	blk, l := b.at(lane)
	return blk.outs[idx*blk.n+l]
}

// PeekSlot reads one lane of an input, output, register Q or constant
// between cycles, routing through the packed layout for 1-bit slots. Any
// other LI coordinate is an internal value of the settle: a packing
// schedule recycles its row once its last reader has run, so what the row
// holds between cycles is some later value.
func (b *Batch) PeekSlot(lane int, slot int32) uint64 {
	blk, l := b.at(lane)
	return b.peek(blk, l, slot)
}

// PokeSlot writes one lane of an input or register Q between cycles
// (host-DUT communication, §6.2), masked to the slot's width. Packed 1-bit
// slots are written in the packed layout, so a DMI poke lands exactly where
// the next packed settle reads.
func (b *Batch) PokeSlot(lane int, slot int32, v uint64) {
	blk, l := b.at(lane)
	b.poke(blk, l, slot, v)
}

// RegSnapshot copies one lane's committed register values.
func (b *Batch) RegSnapshot(lane int) []uint64 {
	blk, l := b.at(lane)
	out := make([]uint64, len(b.t.RegSlots))
	for i, r := range b.t.RegSlots {
		out[i] = b.peek(blk, l, r.Q)
	}
	return out
}

// Settle performs one combinational evaluation of every lane and samples the
// primary outputs.
func (b *Batch) Settle() { b.ws.Do(b.settleJob) }

// Step runs Settle followed by the simultaneous register commit of every
// lane. It is exactly [Batch.Run] of one cycle.
func (b *Batch) Step() { b.Run(1) }

// Run advances every lane k cycles with one command dispatch and one join
// in total: each worker loops its full schedule k times over its own lane
// block with zero intermediate synchronisation (lanes are independent), so
// the per-cycle dispatch cost of Step amortises over k. Run(k) is
// bit-identical to k calls of Step; Run(0) is a no-op. It panics after
// [Batch.Close].
func (b *Batch) Run(k int) { b.RunBulk(RunSpec{Cycles: k}) }

// RunBulk advances up to spec.Cycles cycles inside the workers' resident
// run loops, driving the stimulus at the top of every cycle and stopping
// early when the watch accepts (see [RunSpec]). It returns the completed
// cycle count and whether the watch stopped the run. A watched run executes
// in lock-step — one barrier per cycle, so every lane stops at the same
// cycle the watch accepted — while an unwatched run stays
// synchronisation-free between dispatch and join. The whole spec is one
// dispatch/join round: a host that wants to stop a long run cuts it into
// shorter specs.
func (b *Batch) RunBulk(spec RunSpec) (ran int, stopped bool) {
	k := spec.Cycles
	if k <= 0 {
		return 0, false
	}
	b.cur = spec
	if spec.Watch == nil {
		b.ws.Do(b.runJob)
	} else {
		ran, stopped = b.ws.Lockstep(k, b.cycleJob, nil)
	}
	b.cur = RunSpec{} // the batch keeps no reference to a finished run
	if stopped {
		return ran, true
	}
	// Deliberate-defect injection site: when a test arms EngineDefect, one
	// register bit of lane 0 flips after the dispatch, corrupting every
	// scheduled batch shape (wide, packed, parallel) while leaving the
	// scalar sessions and the StepReference oracle untouched — the
	// differential harness and its shrinker are validated against exactly
	// this. Disarmed, the cost is a single atomic load.
	if faultinject.Fire(faultinject.EngineDefect) != nil && len(b.t.RegSlots) > 0 {
		q := b.t.RegSlots[0].Q
		b.PokeSlot(0, q, b.PeekSlot(0, q)^1)
	}
	return k, false
}

// SettleReference evaluates every lane through the spec: the tensor's
// operations in order, each one's operands gathered per lane and handed to
// [wire.Eval]. It shares no code with the schedule it is the parity oracle
// for — no tape, no rows, no mask elision, no loop bodies — and is the
// baseline the benchmark's kernel.batch_reference_lane_cycles_per_s metric
// measures the fast path against. It evaluates into a lane vector of its own
// per LI coordinate, which levelization makes safe to write in place, and
// meets the batch's stores only at home rows: it loads inputs, constants and
// register Qs from theirs and writes the outputs back to theirs, so it runs
// on any layout the schedule compiler chose.
func (b *Batch) SettleReference() {
	if b.ref == nil {
		b.ref = make([]uint64, b.t.NumSlots*b.lanes)
	}
	var vals []uint64
	for bi := range b.blocks {
		blk, n := &b.blocks[bi], b.blocks[bi].n
		li := b.ref[b.t.NumSlots*blk.lo:][:b.t.NumSlots*n]
		load := func(slot int32) {
			for l := range n {
				li[int(slot)*n+l] = b.peek(blk, l, slot)
			}
		}
		for _, slot := range b.t.InputSlots {
			load(slot)
		}
		for _, c := range b.t.ConstSlots {
			load(c.Slot)
		}
		for _, r := range b.t.RegSlots {
			load(r.Q)
		}
		b.t.Ops(func(_ int, sig uint16, s int32, args []int32) {
			code, out, mask := b.t.OpTable[sig].Op, li[int(s)*n:][:n], b.t.Masks[s]
			for l := range out {
				vals = vals[:0]
				for _, a := range args {
					vals = append(vals, li[int(a)*n+l])
				}
				out[l] = wire.Eval(code, vals, mask)
			}
		})
		for i, slot := range b.t.OutputSlots {
			copy(blk.outs[i*n:][:n], li[int(slot)*n:][:n])
			for l := range n {
				b.poke(blk, l, slot, li[int(slot)*n+l])
			}
		}
	}
}

// StepReference is SettleReference followed by the textbook register commit:
// every Q's home row takes its Next, masked, from the oracle's own lane
// vectors, which no write of the commit touches.
func (b *Batch) StepReference() {
	b.SettleReference()
	for bi := range b.blocks {
		blk, n := &b.blocks[bi], b.blocks[bi].n
		li := b.ref[b.t.NumSlots*blk.lo:][:b.t.NumSlots*n]
		for _, r := range b.t.RegSlots {
			for l := range n {
				b.poke(blk, l, r.Q, li[int(r.Next)*n+l]&r.Mask)
			}
		}
	}
}
