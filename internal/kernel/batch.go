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
// slices, the memory shape a vectorising compiler (or a future SIMD/GPU
// backend) wants.
//
// The schedule is the batch-specialised compilation of the fully unrolled TI
// tape (see batch_sched.go): operand slots are pre-bound to lane-vector
// slices at instantiation, redundant output masks are elided, the loop
// bodies are bounds-check-free, and the register commit folds to a single
// pass when no Next/Q aliasing forces staging. Levelization guarantees
// in-layer writes never feed in-layer reads, so results go straight to their
// LI coordinates in every lane.
//
// A batch built over a packing schedule keeps every slot the schedule
// packed in a bit-packed store instead — lane i is bit i of a word vector —
// so the packed loop bodies evaluate 64 lanes per word-wide op. Each slot
// has one home: a packed slot owns a lane vector only when a schedule
// instruction reads or writes its wide view, and Poke/Peek route through
// the packed layout transparently. The [Batch.SettleReference] oracle works
// on lane vectors alone, so it runs on wide batches only.
//
// A batch shards its lanes over the workers of one [Workers] group: every
// worker runs the full schedule across its own contiguous lane block —
// lanes never interact, so an unwatched run needs no synchronisation between
// dispatch and join. Packed batches shard on 64-lane-aligned word boundaries
// so no two workers share a packed word; surplus workers past the word count
// idle on empty ranges. A one-worker batch is a group of one: its single
// shard runs on the caller's goroutine. Call [Batch.Close] to stop the
// workers deterministically; an unreachable batch's group is stopped by the
// garbage collector.
type Batch struct {
	t      *oim.Tensor
	sched  *batchSchedule
	lanes  int
	words  int        // packed words per slot, (lanes+63)/64 (packing only)
	li     [][]uint64 // li[slot] is the slot's lane-vector (SoA); nil when packed-only
	buf    []uint64   // backing store for li, wideSlots*lanes contiguous
	pk     [][]uint64 // pk[slot] is the packed lane-bitvector; nil per wide slot
	pkbuf  []uint64   // backing store for pk, packedSlots*words contiguous
	next   []uint64   // staged register commit, regs*lanes (staged plan only)
	pkNext []uint64   // packed staged commit, regs*words (staged packed plan)
	outs   []uint64   // sampled outputs, outputs*lanes

	shards []*batchShard // shards[w] is worker w's lane block
	ws     *Workers

	// The per-worker bodies, bound once so a dispatch allocates nothing,
	// and the run they execute: the poke plan is shared read-only by all
	// workers until the dispatch joins (each applies only its own lanes).
	settleJob, runJob func(w int)
	cycleJob          func(w, i int) bool
	cur               RunSpec
}

// batchShard is the slice of a batch one worker owns: the schedule bound to
// a contiguous lane sub-range, plus views of the shared stores so the
// worker can apply planned pokes and evaluate watches for its own lanes.
// Lanes are independent, so shards share no mutable state (the store views
// overlap only on lanes outside every other shard's range).
type batchShard struct {
	ops         []boundOp
	commits     []boundCommit
	outB        []outBind
	fusedCommit bool

	lo, hi int        // owned lane range
	lanes  int        // full batch width (outs stride)
	li     [][]uint64 // full-batch lane vectors, nil per packed-only slot (poke/watch access)
	pk     [][]uint64 // packed store, nil per wide slot / wide batch
	masks  []uint64
	outs   []uint64
	pi     int // poke-plan cursor of a lock-step run
}

// settle runs the schedule and samples the outputs; step adds the register
// commit.
func (sh *batchShard) settle() {
	runOps(sh.ops)
	runOuts(sh.outB)
}

// step runs one full cycle: the pokes scheduled at or before cycle i that
// fall on owned lanes (from cursor pi; the advanced cursor is returned),
// the schedule, the register commit.
func (sh *batchShard) step(i, pi int, pokes []PlannedPoke) int {
	for ; pi < len(pokes) && pokes[pi].Cycle <= i; pi++ {
		if sh.owns(pokes[pi].Lane) {
			sh.poke(pokes[pi])
		}
	}
	sh.settle()
	runCommits(sh.commits, sh.fusedCommit)
	return pi
}

// poke applies one planned poke to the shard's stores (the caller checks
// the lane is owned).
func (sh *batchShard) poke(p PlannedPoke) {
	if sh.pk != nil {
		if w := sh.pk[p.Slot]; w != nil {
			pkSet(w, p.Lane, p.Value)
			return
		}
	}
	sh.li[p.Slot][p.Lane] = p.Value & sh.masks[p.Slot]
}

// owns reports whether the lane falls in this shard's range.
func (sh *batchShard) owns(lane int) bool { return lane >= sh.lo && lane < sh.hi }

// watchValue samples the watched value from the shard's stores: primary
// outputs from the settle-sampled outs (an output slot may alias a register
// Q whose LI value moves at commit), everything else from the LI store.
func (sh *batchShard) watchValue(w *Watch) uint64 {
	if w.OutIdx >= 0 {
		return sh.outs[w.OutIdx*sh.lanes+w.Lane]
	}
	if sh.pk != nil {
		if p := sh.pk[w.Slot]; p != nil {
			return pkGet(p, w.Lane)
		}
	}
	return sh.li[w.Slot][w.Lane]
}

// The three bodies a batch hands its group. runShard is the resident loop
// of an unwatched run: k cycles with no synchronisation at all. cycleShard
// is one cycle of a watched run, which the group executes in lock-step so
// every lane stops at the cycle the watch accepted; the shard owning the
// watched lane evaluates it.
func (b *Batch) settleShard(w int) { b.shards[w].settle() }

func (b *Batch) runShard(w int) {
	sh, k, pokes := b.shards[w], b.cur.Cycles, b.cur.Pokes
	pi := 0
	for i := 0; i < k; i++ {
		pi = sh.step(i, pi, pokes)
	}
}

func (b *Batch) cycleShard(w, i int) bool {
	sh, watch := b.shards[w], b.cur.Watch
	if i == 0 {
		sh.pi = 0
	}
	sh.pi = sh.step(i, sh.pi, b.cur.Pokes)
	return sh.owns(watch.Lane) && watch.Accepts(sh.watchValue(watch))
}

// NewBatch builds an n-lane batch engine over t, compiling the schedule
// itself. Callers holding a [Program] should prefer
// [Program.InstantiateBatchWith], which caches the schedule across batches.
func NewBatch(t *oim.Tensor, lanes int) (*Batch, error) {
	if t.NumSlots == 0 {
		return nil, fmt.Errorf("kernel: empty design")
	}
	return newBatch(t, buildBatchSchedule(t, false), lanes, 1)
}

func newBatch(t *oim.Tensor, sched *batchSchedule, lanes, workers int) (*Batch, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("kernel: batch needs at least 1 lane, got %d", lanes)
	}
	workers = min(max(workers, 1), lanes)
	b := &Batch{
		t:     t,
		sched: sched,
		lanes: lanes,
		buf:   make([]uint64, len(sched.wideSlots)*lanes),
		li:    make([][]uint64, t.NumSlots),
		outs:  make([]uint64, len(t.OutputSlots)*lanes),
	}
	if !sched.fusedCommit {
		b.next = make([]uint64, len(t.RegSlots)*lanes)
	}
	for i, slot := range sched.wideSlots {
		b.li[slot] = b.buf[i*lanes : (i+1)*lanes : (i+1)*lanes]
	}
	if sched.packing {
		b.words = (lanes + 63) / 64
		b.pk = make([][]uint64, t.NumSlots)
		b.pkbuf = make([]uint64, len(sched.packedSlots)*b.words)
		for i, slot := range sched.packedSlots {
			b.pk[slot] = b.pkbuf[i*b.words : (i+1)*b.words : (i+1)*b.words]
		}
		if !sched.fusedCommit {
			b.pkNext = make([]uint64, len(t.RegSlots)*b.words)
		}
	}
	lo := 0
	for w := 0; w < workers; w++ {
		var hi int
		if sched.packing {
			// Split on 64-lane-aligned word boundaries so no two
			// workers ever write the same packed word. Workers past
			// the word count keep an empty [hi,hi) range — they idle
			// at the barrier but preserve the requested shard count.
			wds := b.words / workers
			if w < b.words%workers {
				wds++
			}
			hi = min(lo+wds*64, lanes)
		} else {
			hi = lo + lanes/workers
			if w < lanes%workers {
				hi++
			}
		}
		b.shards = append(b.shards, &batchShard{
			ops:         bindOps(sched, b.li, b.pk, lo, hi),
			commits:     bindCommits(sched, b.li, b.pk, b.next, b.pkNext, lanes, b.words, lo, hi),
			outB:        bindOuts(t, sched, b.li, b.pk, b.outs, lanes, lo, hi),
			fusedCommit: sched.fusedCommit,
			lo:          lo,
			hi:          hi,
			lanes:       lanes,
			li:          b.li,
			pk:          b.pk,
			masks:       t.Masks,
			outs:        b.outs,
		})
		lo = hi
	}
	b.ws = NewWorkers(workers)
	b.settleJob, b.runJob, b.cycleJob = b.settleShard, b.runShard, b.cycleShard
	b.Reset()
	return b, nil
}

// Lanes reports the batch width.
func (b *Batch) Lanes() int { return b.lanes }

// Workers reports the effective worker count (1 = sequential).
func (b *Batch) Workers() int { return len(b.shards) }

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
// in each store that holds it (a packed-only slot's lane vector is nil).
func (b *Batch) Reset() {
	for i := range b.buf {
		b.buf[i] = 0
	}
	for i := range b.pkbuf {
		b.pkbuf[i] = 0
	}
	for _, c := range b.t.ConstSlots {
		fill(b.li[c.Slot], c.Value)
		if w := b.pkOf(c.Slot); w != nil {
			fillPk(w, c.Value)
		}
	}
	for _, r := range b.t.RegSlots {
		fill(b.li[r.Q], r.Init)
		if w := b.pkOf(r.Q); w != nil {
			fillPk(w, r.Init)
		}
	}
	for i := range b.outs {
		b.outs[i] = 0
	}
}

// pkOf returns slot's packed word vector, or nil when the slot (or the
// whole batch) is wide.
func (b *Batch) pkOf(slot int32) []uint64 {
	if b.pk == nil {
		return nil
	}
	return b.pk[slot]
}

func fill(v []uint64, x uint64) {
	for i := range v {
		v[i] = x
	}
}

// PokeInput drives the idx-th primary input of one lane.
func (b *Batch) PokeInput(lane, idx int, v uint64) {
	slot := b.t.InputSlots[idx]
	if w := b.pkOf(slot); w != nil {
		pkSet(w, lane, v)
		return
	}
	b.li[slot][lane] = v & b.t.Masks[slot]
}

// PeekOutput reads the idx-th primary output of one lane as sampled at the
// most recent Settle.
func (b *Batch) PeekOutput(lane, idx int) uint64 { return b.outs[idx*b.lanes+lane] }

// PeekSlot reads any LI coordinate of one lane, routing through the packed
// layout for 1-bit slots.
func (b *Batch) PeekSlot(lane int, slot int32) uint64 {
	if w := b.pkOf(slot); w != nil {
		return pkGet(w, lane)
	}
	return b.li[slot][lane]
}

// PokeSlot writes any LI coordinate of one lane (host-DUT communication,
// §6.2), masked to the slot's width. Packed 1-bit slots are written in the
// packed layout, so a DMI poke lands exactly where the next packed settle
// reads.
func (b *Batch) PokeSlot(lane int, slot int32, v uint64) {
	if w := b.pkOf(slot); w != nil {
		pkSet(w, lane, v)
		return
	}
	b.li[slot][lane] = v & b.t.Masks[slot]
}

// RegSnapshot copies one lane's committed register values.
func (b *Batch) RegSnapshot(lane int) []uint64 {
	out := make([]uint64, len(b.t.RegSlots))
	for i, r := range b.t.RegSlots {
		if w := b.pkOf(r.Q); w != nil {
			out[i] = pkGet(w, lane)
			continue
		}
		out[i] = b.li[r.Q][lane]
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
// run loops, applying the scheduled pokes at their cycles and stopping
// early when the watch accepts (see [RunSpec]). It returns the completed
// cycle count and whether the watch stopped the run. A watched run executes
// in lock-step — one barrier per cycle, so every lane stops at the same
// cycle the watch accepted — while an unwatched run stays
// synchronisation-free between dispatch and join.
// A spec with a Cancel probe runs in [CancelCheckCycles] chunks — one
// dispatch/join round per chunk, the probe polled on the calling goroutine
// between rounds — so cancellation never tears lanes out of lock-step.
func (b *Batch) RunBulk(spec RunSpec) (ran int, stopped bool) {
	return RunChunked(spec, b.runBulkOnce)
}

// runBulkOnce is one uninterruptible dispatch of a bulk run; pokes arrive
// sorted from RunChunked.
func (b *Batch) runBulkOnce(spec RunSpec) (ran int, stopped bool) {
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
	b.cur = RunSpec{} // the batch retains no per-run buffer
	if stopped {
		return ran, true
	}
	// Deliberate-defect injection site: when a test arms EngineDefect, one
	// register bit of lane 0 flips after the dispatch, corrupting every
	// scheduled batch shape (fused, packed, parallel) while leaving the
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
// for — no tape, no operand binding, no mask elision, no loop bodies — and is
// the baseline the benchmark's kernel.batch_reference_lane_cycles_per_s
// metric measures the fast path against. Results go straight to their LI
// coordinates, which levelization makes safe. It reads and writes lane
// vectors only, so it panics on a packed batch, whose packed slots have none.
func (b *Batch) SettleReference() {
	if b.pk != nil {
		panic("kernel: the reference oracle runs on wide batches only")
	}
	li := b.li
	var vals []uint64
	b.t.Ops(func(_ int, sig uint16, s int32, args []int32) {
		code, out, mask := b.t.OpTable[sig].Op, li[s], b.t.Masks[s]
		for l := range out {
			vals = vals[:0]
			for _, a := range args {
				vals = append(vals, li[a][l])
			}
			out[l] = wire.Eval(code, vals, mask)
		}
	})
	lanes := b.lanes
	for i, slot := range b.t.OutputSlots {
		copy(b.outs[i*lanes:(i+1)*lanes], li[slot])
	}
}

// StepReference is SettleReference followed by the staged two-pass register
// commit the schedule compiler folds away when it can. Like SettleReference
// it panics on a packed batch.
func (b *Batch) StepReference() {
	b.SettleReference()
	lanes := b.lanes
	if b.next == nil {
		b.next = make([]uint64, len(b.t.RegSlots)*lanes)
	}
	for i, r := range b.t.RegSlots {
		src := b.li[r.Next]
		dst := b.next[i*lanes : (i+1)*lanes]
		for l := range dst {
			dst[l] = src[l] & r.Mask
		}
	}
	for i, r := range b.t.RegSlots {
		copy(b.li[r.Q], b.next[i*lanes:(i+1)*lanes])
	}
}
