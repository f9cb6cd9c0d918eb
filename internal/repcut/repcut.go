// Package repcut implements RepCut-style parallel RTL simulation (§8 and
// Appendix C) on top of the RTeAAL kernels: the design is split into
// partitions with replication-aided cuts — each partition owns a subset of
// the registers and replicates the full combinational cone needed to
// compute their next states, eliminating intra-cycle communication. At the
// end of every cycle a synchronisation step, described by the RUM (Register
// Update Map) tensor of Cascade 2, propagates each register's committed
// value to exactly the partitions whose cones read it (the differential
// exchange of Box 1).
//
// The package mirrors the compile-once architecture of internal/kernel:
//
//   - [NewPlan] partitions a design once, kernel-independently: ownership
//     (the min-cut planner's, or an explicit owner vector), then one fan-in
//     sweep labelled by partition for the per-partition sub-tensors and the
//     reader-indexed RUM.
//   - [Plan.Lower] lowers the sub-tensors into shareable [kernel.Program]s
//     for one kernel configuration — also once.
//   - [Plan.Instantiate] mints any number of runnable [Instance]s over
//     those programs. Each instance owns only mutable state plus one
//     [kernel.Workers] group with a resident worker per partition, so
//     instances are cheap and may run concurrently.
//
// Everything downstream of the ownership vector — cones, sub-tensors, RUM,
// stats — is assignment-agnostic: any valid owner vector yields a correct
// (bit-identical) parallel simulation, and the ownership only moves what a
// cycle costs: how large the largest partition is, how much logic is
// replicated and how many registers cross the cut.
package repcut

import (
	"fmt"
	"slices"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
)

// Plan is the immutable, kernel-independent partitioning of one design:
// which partition owns each register and output, the replicated
// combinational cone of every partition as a sub-tensor, and the
// reader-indexed RUM describing the end-of-cycle exchange. A plan is built
// once per design and shared read-only by every instance.
type Plan struct {
	t    *oim.Tensor
	subs []*oim.Tensor
	// regOwner[ri] is the partition owning register ri.
	regOwner []int
	// outOwner[oi] is the partition that samples output oi.
	outOwner []int
	// pubs[p] and pulls[p] are the RUM tensor lowered to exchange-buffer
	// adjacency: every cross-partition register is assigned one index of a
	// shared exchange buffer; after each commit the owner publishes its Q
	// value there (pubs) and every reader copies it into its own engine
	// (pulls). Indexing by a flat buffer instead of peeking the source
	// engine directly is what lets instances double-buffer the exchange
	// inside a bulk run — publishes of cycle i+1 go to the buffer the
	// pulls of cycle i are not reading.
	pubs, pulls [][]xchgEntry
	// nExchange is the exchange-buffer length (cross-partition registers).
	nExchange int
	// slotAuth[slot] is a partition whose LI holds an authoritative value
	// for the coordinate: the owner for register Q/next slots, the sampling
	// owner for output slots. Every partition holds every input and
	// constant, so the rest stay partition 0.
	slotAuth []int32

	stats PlanStats
}

// xchgEntry links one register's Q coordinate to its exchange-buffer index.
type xchgEntry struct {
	q  int32
	xi int32
}

// PlanStats summarises a partition plan: the replication the cuts cost and
// the cut size the differential exchange pays every cycle.
type PlanStats struct {
	// Partitions is the actual partition count; Requested is what the
	// caller asked for before clamping to the register count.
	Partitions, Requested int
	// TotalOps counts operations in the unpartitioned design;
	// ReplicatedOps counts operations across all partition cones.
	TotalOps, ReplicatedOps int
	// ReplicationFactor is ReplicatedOps over TotalOps (1.0 = no sharing).
	ReplicationFactor float64
	// CutSize counts register→reader edges crossing partitions: the number
	// of occupied RUM points exchanged after every commit.
	CutSize int
	// PartitionOps lists each partition's cone op count. A lock-step cycle
	// costs what its slowest partition costs, so MaxPartitionOps against
	// TotalOps/Partitions is the number to look at; MinPartitionOps shows
	// how much of the other workers' time is spent waiting.
	PartitionOps                     []int
	MaxPartitionOps, MinPartitionOps int
}

// NewPlan partitions the design into n parts. Register ownership is the
// planner's call when owner is nil: it minimises the largest partition's
// operations plus the registers it exchanges (see planner.go). A non-nil
// owner is an explicit ownership, owner[ri] the partition of register ri of
// t.RegSlots, and must cover every register and leave no partition empty.
// Each output is sampled by the partition owning the plurality of the
// registers its cone reads, and each partition's sub-tensor contains exactly
// the cone of operations its registers and assigned outputs need
// (replication-aided partitioning: shared logic is copied). A request for
// more partitions than registers is clamped — empty partitions would spin
// workers with no work — so the effective count is reported by
// [PlanStats.Partitions]. A design whose planner or output-vote sweep would
// need more than 512 MiB of label sets is refused with an error.
func NewPlan(t *oim.Tensor, n int, owner []int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("repcut: need at least one partition, got %d", n)
	}
	requested := n
	n = min(n, max(len(t.RegSlots), 1))

	// Refuse, before anything is allocated, a design whose label sweeps
	// would pass the budget: the planner's over registers, the output
	// vote's over outputs.
	labels := len(t.OutputSlots)
	if owner == nil && n > 1 {
		labels = max(labels, len(t.RegSlots))
	}
	if need := (t.TotalOps() + len(t.RegSlots)) * ((labels + 63) / 64) * 8; need > sweepBudget {
		return nil, fmt.Errorf("repcut: a plan of %d ops and %d registers over %d labels needs %d MiB, more than the %d MiB plan budget",
			t.TotalOps(), len(t.RegSlots), labels, need>>20, sweepBudget>>20)
	}

	p := &Plan{
		t:        t,
		outOwner: make([]int, len(t.OutputSlots)),
		pubs:     make([][]xchgEntry, n),
		pulls:    make([][]xchgEntry, n),
		slotAuth: make([]int32, t.NumSlots),
	}

	// Register ownership. Everything below is a pure function of this
	// vector.
	f := newFanIn(t)
	if owner == nil {
		owner = planOwners(t, f, n)
	} else if err := checkOwner(owner, len(t.RegSlots), n); err != nil {
		return nil, fmt.Errorf("repcut: %w", err)
	}
	p.regOwner = slices.Clone(owner) // an explicit owner stays the caller's
	ownedRegs := make([][]int, n)    // ownedRegs[p] indexes t.RegSlots owned by partition p
	for ri, part := range owner {
		ownedRegs[part] = append(ownedRegs[part], ri)
	}

	// Output ownership: sample each output in the partition that owns the
	// plurality of the registers its cone reads (the lowest on a tie), so the
	// sampling partition replicates as little extra logic as possible.
	// Outputs reading no registers scatter round-robin.
	nOut := len(t.OutputSlots)
	outReads := f.sweep(t.OutputSlots, nil, nOut)
	votes := make([]int, nOut*n) // votes[oi*n+q]: the registers of q that output oi's cone reads
	for ri, q := range owner {
		outReads.reg(ri).forEachBit(func(oi int) { votes[oi*n+q]++ })
	}
	for oi, slot := range t.OutputSlots {
		row, part := votes[oi*n:][:n], oi%n
		if most := slices.Max(row); most > 0 {
			part = slices.Index(row, most)
		}
		p.outOwner[oi] = part
		p.slotAuth[slot] = int32(part)
	}

	// Partition cones: every register's Next and every output, labelled
	// with the partition that owns it.
	cones := f.sweep(slices.Concat(f.next, t.OutputSlots), slices.Concat(owner, p.outOwner), n)

	// Sub-tensors: same slot space, the cone's operations, owned registers
	// only (names stay with the full tensor).
	keep := make([]bool, t.NumSlots)
	for part := 0; part < n; part++ {
		for s, id := range f.producer {
			keep[s] = id >= 0 && cones.op(int(id)).has(part)
		}
		sub := t.Cone(keep)
		sub.Design = fmt.Sprintf("%s.part%d", t.Design, part)
		sub.RegSlots, sub.RegNames = make([]dfg.RegSlot, 0, len(ownedRegs[part])), nil
		for _, ri := range ownedRegs[part] {
			sub.RegSlots = append(sub.RegSlots, t.RegSlots[ri])
		}
		sub.ConstSlots = append([]dfg.SlotInit(nil), t.ConstSlots...)
		p.subs = append(p.subs, sub)
	}

	// Differential RUM (Box 1): register ri propagates only to the
	// partitions whose cones actually read its Q coordinate. Each
	// cross-partition register gets one index of the shared exchange
	// buffer; the owner's publish list and every reader's pull list are
	// indexed per partition so each worker drains its own side in
	// parallel. Foreign registers a cone reads are read-only state
	// refreshed by the exchange; their initial values are preloaded at
	// reset via ConstSlots.
	cut := 0
	for ri, r := range t.RegSlots {
		owner := p.regOwner[ri]
		p.slotAuth[r.Q], p.slotAuth[r.Next] = int32(owner), int32(owner)
		readers, reads := 0, cones.reg(ri)
		for part := 0; part < n; part++ {
			if part == owner || !reads.has(part) {
				continue
			}
			readers++
			p.pulls[part] = append(p.pulls[part], xchgEntry{q: r.Q, xi: int32(p.nExchange)})
			p.subs[part].ConstSlots = append(p.subs[part].ConstSlots,
				dfg.SlotInit{Slot: r.Q, Value: r.Init})
		}
		if readers > 0 {
			p.pubs[owner] = append(p.pubs[owner], xchgEntry{q: r.Q, xi: int32(p.nExchange)})
			p.nExchange++
		}
		cut += readers
	}

	// Stats.
	p.stats = PlanStats{
		Partitions:      n,
		Requested:       requested,
		TotalOps:        t.TotalOps(),
		CutSize:         cut,
		PartitionOps:    make([]int, 0, n),
		MinPartitionOps: p.subs[0].TotalOps(),
	}
	for _, sub := range p.subs {
		ops := sub.TotalOps()
		p.stats.PartitionOps = append(p.stats.PartitionOps, ops)
		p.stats.ReplicatedOps += ops
		p.stats.MaxPartitionOps = max(p.stats.MaxPartitionOps, ops)
		p.stats.MinPartitionOps = min(p.stats.MinPartitionOps, ops)
	}
	if p.stats.TotalOps > 0 {
		p.stats.ReplicationFactor = float64(p.stats.ReplicatedOps) / float64(p.stats.TotalOps)
	} else {
		p.stats.ReplicationFactor = 1
	}
	return p, nil
}

// Stats reports the plan's replication and cut figures.
func (p *Plan) Stats() PlanStats {
	st := p.stats
	st.PartitionOps = append([]int(nil), p.stats.PartitionOps...)
	return st
}

// Lower builds one shareable [kernel.Program] per partition for the given
// kernel configuration. Lowering happens once; the resulting programs back
// any number of instances via [Plan.Instantiate].
func (p *Plan) Lower(cfg kernel.Config) ([]*kernel.Program, error) {
	progs := make([]*kernel.Program, len(p.subs))
	for i, sub := range p.subs {
		prog, err := kernel.NewProgram(sub, cfg)
		if err != nil {
			return nil, fmt.Errorf("repcut: partition %d: %w", i, err)
		}
		progs[i] = prog
	}
	return progs, nil
}

// Instance is one runnable partitioned simulation. It implements
// [kernel.Engine], so it is a drop-in for a single-partition engine
// wherever one is expected. The partitions are the workers of one
// [kernel.Workers] group — plain goroutines, like a batch's lane shards: a
// partition that waits at the cycle barrier waits by yielding, and a yield
// must stay a run-queue check, never a hand-off between OS threads. The
// instance supplies the per-partition bodies and the group owns dispatch,
// the cycle barrier and panic recovery. The goroutines stop when
// [Instance.Close] is called or the instance is garbage-collected.
type Instance struct {
	plan    *Plan
	engines []kernel.Engine
	ws      *kernel.Workers

	// xbuf is the double-buffered exchange buffer of a run: cycle i
	// publishes to xbuf[i&1] while its pulls read the buffer cycle i-1
	// filled.
	xbuf [2][]uint64

	// The per-partition bodies, bound once so a dispatch allocates nothing,
	// and the run they execute, with the partition that evaluates its
	// watch. Cleared after every run — nothing per-run is retained.
	cycleJob  func(w, i int) bool
	afterJob  func(w, last int)
	cur       kernel.RunSpec
	watchPart int
}

// Instantiate mints a runnable instance over programs previously built by
// [Plan.Lower] on this same plan. Instances are independent: each owns its
// engines' mutable state, so distinct instances may run concurrently.
func (p *Plan) Instantiate(progs []*kernel.Program) (*Instance, error) {
	if len(progs) != len(p.subs) {
		return nil, fmt.Errorf("repcut: got %d programs for %d partitions", len(progs), len(p.subs))
	}
	in := &Instance{
		plan:    p,
		engines: make([]kernel.Engine, len(progs)),
	}
	for i, prog := range progs {
		if prog.Tensor() != p.subs[i] {
			return nil, fmt.Errorf("repcut: program %d was not lowered from this plan", i)
		}
		in.engines[i] = prog.Instantiate()
	}
	in.xbuf[0] = make([]uint64, p.nExchange)
	in.xbuf[1] = make([]uint64, p.nExchange)
	in.ws = kernel.NewWorkers(len(in.engines))
	in.cycleJob, in.afterJob = in.cyclePart, in.pullPart
	return in, nil
}

// Close stops the instance's worker goroutines. Optional — an unreachable
// instance is cleaned up by the garbage collector — but deterministic. The
// instance must not be run afterwards: Step and the bulk runs panic on a
// closed instance.
func (in *Instance) Close() { in.ws.Close() }

// cyclePart is one cycle of partition w inside a resident run: pull the
// foreign register values the previous cycle published, run the cycle as a
// one-cycle [kernel.RunEngine] (which drives the stimulus on every input),
// publish its own committed registers, and evaluate the watch if this
// partition holds the watched value. The group then meets the other
// partitions at the barrier.
//
// The exchange is double-buffered: cycle i publishes into xbuf[i&1] while
// cycle i+1's pulls read xbuf[i&1] after the barrier — a single barrier per
// cycle suffices because writers of buffer b and readers of buffer 1-b never
// overlap. The first cycle of a run pulls nothing: between runs every
// partition's foreign slots are current (the previous run's epilogue — or
// reset — left them so).
func (in *Instance) cyclePart(w, i int) bool {
	eng := in.engines[w]
	if i > 0 {
		in.pullPart(w, i-1)
	}
	eng.RunBulk(kernel.RunSpec{Cycles: 1, Stim: in.cur.Stim, From: in.cur.From + int64(i)})
	dst := in.xbuf[i&1]
	for _, e := range in.plan.pubs[w] {
		dst[e.xi] = eng.PeekSlot(e.q)
	}
	watch := in.cur.Watch
	return watch != nil && w == in.watchPart && watch.Accepts(watch.Sample(eng))
}

// pullPart copies the foreign registers cycle i published into partition
// w's engine. As the epilogue of a run (the group calls it with the last
// completed cycle once the cohort has stopped) it restores the inter-run
// invariant — every foreign slot holds the value its owner last committed —
// so host peeks, pokes and the next run's first cycle see current state.
func (in *Instance) pullPart(w, i int) {
	eng, src := in.engines[w], in.xbuf[i&1]
	for _, e := range in.plan.pulls[w] {
		eng.PokeSlot(e.q, src[e.xi])
	}
}

// Step runs one cycle: parallel settle+commit in every partition, then the
// parallel RUM synchronisation step (the final einsum of Cascade 2). It is
// exactly a bulk run of one cycle.
func (in *Instance) Step() { in.RunBulk(kernel.RunSpec{Cycles: 1}) }

// RunCycles advances k cycles; it is RunBulk without a stimulus or a watch.
func (in *Instance) RunCycles(k int) { in.RunBulk(kernel.RunSpec{Cycles: k}) }

// RunBulk executes a [kernel.RunSpec] across the partitions
// ([kernel.Engine.RunBulk]): one dispatch, k resident cycles in every worker
// with one barrier per cycle, one join. It returns the completed cycle count
// and whether the watch stopped the run; bit-identical to stepping by hand.
// Every partition drives the stimulus on every input, as live
// [Instance.PokeSlot] calls would; a watch is evaluated by the single
// partition holding the authoritative value, and the group stops every
// partition at the cycle it accepts. The run is never cut short from
// inside: a host that wants to stop a long run hands over shorter specs, so
// partition state is only ever observed at cycle boundaries every worker
// has crossed.
func (in *Instance) RunBulk(spec kernel.RunSpec) (ran int, stopped bool) {
	if spec.Cycles <= 0 {
		return 0, false
	}
	in.cur = spec
	if w := spec.Watch; w != nil {
		if w.OutIdx >= 0 {
			in.watchPart = in.plan.outOwner[w.OutIdx]
		} else {
			in.watchPart = int(in.plan.slotAuth[w.Slot])
		}
	}
	ran, stopped = in.ws.Lockstep(spec.Cycles, in.cycleJob, in.afterJob)
	in.cur = kernel.RunSpec{}
	return ran, stopped
}

// Reset restores every partition, its sampled outputs included. Safe
// between cycles: workers are parked on their command channels whenever no
// run is in flight.
func (in *Instance) Reset() {
	for _, e := range in.engines {
		e.Reset()
	}
}

// PeekOutput reads a primary output where the partition owning its cone
// sampled it, at the settle of the last completed cycle: 0 after Reset.
func (in *Instance) PeekOutput(idx int) uint64 {
	return in.engines[in.plan.outOwner[idx]].PeekOutput(idx)
}

// PeekSlot reads an LI coordinate from a partition holding an authoritative
// value: the owner for register coordinates, the sampling owner for output
// coordinates. Other interior coordinates are only guaranteed fresh in
// partitions whose cones compute them.
func (in *Instance) PeekSlot(slot int32) uint64 {
	return in.engines[in.plan.slotAuth[slot]].PeekSlot(slot)
}

// PokeSlot writes an LI coordinate (host-DUT communication, §6.2) in every
// partition. Every sub-tensor shares the full slot space, so each engine
// whose next settle reads the value sees the write, and a partition that
// never reads the coordinate keeps an unread copy — which keeps DMI pokes
// bit-identical to the unpartitioned engine.
func (in *Instance) PokeSlot(slot int32, v uint64) {
	for _, eng := range in.engines {
		eng.PokeSlot(slot, v)
	}
}

// Tensor returns the unpartitioned design tensor.
func (in *Instance) Tensor() *oim.Tensor { return in.plan.t }
