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
//     (delegated to a pluggable [partition.Strategy]), cone marking,
//     per-partition sub-tensors, and the reader-indexed RUM.
//   - [Plan.Lower] lowers the sub-tensors into shareable [kernel.Program]s
//     for one kernel configuration — also once.
//   - [Plan.Instantiate] mints any number of runnable [Instance]s over
//     those programs. Each instance owns only mutable state plus one
//     [kernel.Workers] group with a resident worker per partition, so
//     instances are cheap and may run concurrently.
//
// Everything downstream of the ownership vector — cones, sub-tensors, RUM,
// stats — is assignment-agnostic: any valid owner vector yields a correct
// (bit-identical) parallel simulation, and the strategy choice only moves
// what a cycle costs: how large the largest partition is, how much logic is
// replicated and how many registers cross the cut.
package repcut

import (
	"fmt"
	"slices"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/partition"
)

// Plan is the immutable, kernel-independent partitioning of one design:
// which partition owns each register and output, the replicated
// combinational cone of every partition as a sub-tensor, and the
// reader-indexed RUM describing the end-of-cycle exchange. A plan is built
// once per design and shared read-only by every instance.
type Plan struct {
	t    *oim.Tensor
	subs []*oim.Tensor
	// ownedRegs[p] indexes t.RegSlots owned by partition p.
	ownedRegs [][]int
	// regOwner[ri] is the partition owning register ri.
	regOwner []int
	// outOwner[oi] is the partition that samples output oi.
	outOwner []int
	// readers[ri] lists the partitions (other than the owner) whose cones
	// read register ri's Q coordinate — the differential exchange.
	readers [][]int
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
	// owner for output slots, and a consuming partition for inputs.
	slotAuth []int32
	// userParts[userStart[slot]:userStart[slot+1]] lists, ascending, the
	// partitions whose cones consume the coordinate (plus the owner for
	// register coordinates): exactly the engines a host poke must reach.
	// Routing pokes through this list — instead of broadcasting, or writing
	// only the authoritative engine and silently starving the others — is
	// what keeps DMI writes (§6.2) bit-identical to the unpartitioned engine.
	// The relation is stored once, in CSR form: two flat arrays, not a slice
	// header and a block per coordinate. Read it through [Plan.users].
	userStart, userParts []int32

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
	// Strategy names the ownership assignment that produced the plan.
	Strategy string
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

// NewPlan partitions the design into n parts. Register ownership is decided
// by the given strategy (nil selects [partition.Default], the min-cut
// refinement); each output is sampled by the partition owning the plurality
// of the registers its cone reads, and each partition's sub-tensor contains
// exactly the cone of operations its registers and assigned outputs need
// (replication-aided partitioning: shared logic is copied). A request for
// more partitions than registers is clamped — empty partitions would spin
// workers with no work — so the effective count is reported by
// [Plan.Partitions] and [PlanStats.Partitions].
func NewPlan(t *oim.Tensor, n int, strat partition.Strategy) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("repcut: need at least one partition, got %d", n)
	}
	if strat == nil {
		strat = partition.Default()
	}
	requested := n
	n = min(n, max(len(t.RegSlots), 1))

	p := &Plan{
		t:         t,
		ownedRegs: make([][]int, n),
		outOwner:  make([]int, len(t.OutputSlots)),
		readers:   make([][]int, len(t.RegSlots)),
		pubs:      make([][]xchgEntry, n),
		pulls:     make([][]xchgEntry, n),
		slotAuth:  make([]int32, t.NumSlots),
	}

	// LI coordinates are dense, so everything keyed by slot is a
	// slot-indexed slice: producer[slot] is the operands of the op writing
	// the slot (nil for sources — an op has at least one operand) and
	// regOf[slot] the register whose Q it is (-1 for none).
	producer := make([][]int32, t.NumSlots)
	t.Ops(func(_ int, _ uint16, out int32, args []int32) { producer[out] = args })

	// Register ownership: the strategy's call. Everything below is a pure
	// function of this vector.
	owner, err := strat.Assign(t, n)
	if err != nil {
		return nil, fmt.Errorf("repcut: %w", err)
	}
	if err := partition.Validate(owner, len(t.RegSlots), n); err != nil {
		return nil, fmt.Errorf("repcut: strategy %s: %w", strat.Name(), err)
	}
	p.regOwner = owner
	for ri, part := range owner {
		p.ownedRegs[part] = append(p.ownedRegs[part], ri)
	}

	// Output ownership: sample each output in the partition that owns the
	// plurality of the registers its cone reads, so the sampling partition
	// replicates as little extra logic as possible. Outputs reading no
	// registers scatter round-robin.
	regOf := make([]int32, t.NumSlots)
	seen := make([]int32, t.NumSlots) // stamp: the last output whose walk visited the slot
	for s := range regOf {
		regOf[s], seen[s] = -1, -1
	}
	for ri, r := range t.RegSlots {
		regOf[r.Q] = int32(ri)
	}
	var stack []int32
	for oi, slot := range t.OutputSlots {
		votes := make([]int, n)
		sawReg := false
		stack = append(stack[:0], slot)
		seen[slot] = int32(oi)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if ri := regOf[s]; ri >= 0 {
				votes[owner[ri]]++
				sawReg = true
				continue
			}
			for _, arg := range producer[s] {
				if seen[arg] != int32(oi) {
					seen[arg] = int32(oi)
					stack = append(stack, arg)
				}
			}
		}
		part := oi % n
		if sawReg {
			part = 0
			for q := 1; q < n; q++ {
				if votes[q] > votes[part] {
					part = q
				}
			}
		}
		p.outOwner[oi] = part
		p.slotAuth[slot] = int32(part)
	}

	// Per-partition cone marking and sub-tensor construction.
	needs := make([][]bool, n)
	for part := 0; part < n; part++ {
		need := make([]bool, t.NumSlots)
		needs[part] = need
		var stack []int32
		want := func(slot int32) {
			if !need[slot] {
				need[slot] = true
				stack = append(stack, slot)
			}
		}
		for _, ri := range p.ownedRegs[part] {
			want(t.RegSlots[ri].Next)
		}
		for oi, slot := range t.OutputSlots {
			if p.outOwner[oi] == part {
				want(slot)
			}
		}
		for len(stack) > 0 {
			slot := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, arg := range producer[slot] { // none for a source
				want(arg)
			}
		}

		// Build the partition tensor: same slot space, the cone's
		// operations, owned registers only (names stay with the full tensor).
		sub := t.Cone(need)
		sub.Design = fmt.Sprintf("%s.part%d", t.Design, part)
		sub.RegSlots, sub.RegNames = make([]dfg.RegSlot, 0, len(p.ownedRegs[part])), nil
		for _, ri := range p.ownedRegs[part] {
			sub.RegSlots = append(sub.RegSlots, t.RegSlots[ri])
		}
		sub.ConstSlots = append([]dfg.SlotInit(nil), t.ConstSlots...)
		p.subs = append(p.subs, sub)
	}

	// Poke routing: per LI coordinate, the partitions whose cones consume
	// it — the needs relation, transposed — plus two kinds of nominal user.
	// The owner commits a register even when its own cone never reads it
	// back, so host pokes of Q must always reach it (Next is a root of the
	// owner's cone already). And an input's authoritative partition must be
	// one that actually receives pokes, or Peek after Poke would read a stale
	// copy; an input no cone reads keeps its authority as the one user so the
	// poke/peek pair stays coherent.
	for ri, r := range t.RegSlots {
		needs[owner[ri]][r.Q] = true
	}
	for _, slot := range t.InputSlots {
		if needs[p.slotAuth[slot]][slot] {
			continue
		}
		if first := slices.IndexFunc(needs, func(need []bool) bool { return need[slot] }); first >= 0 {
			p.slotAuth[slot] = int32(first)
		} else {
			needs[p.slotAuth[slot]][slot] = true
		}
	}
	nUsers := 0
	for _, need := range needs {
		for _, used := range need {
			if used {
				nUsers++
			}
		}
	}
	p.userStart = make([]int32, t.NumSlots+1)
	p.userParts = make([]int32, 0, nUsers)
	for slot := 0; slot < t.NumSlots; slot++ {
		for part, need := range needs {
			if need[slot] {
				p.userParts = append(p.userParts, int32(part))
			}
		}
		p.userStart[slot+1] = int32(len(p.userParts))
	}

	// Differential RUM (Box 1): register ri propagates only to the
	// partitions whose cones actually read its Q coordinate. Each
	// cross-partition register gets one index of the shared exchange
	// buffer; the owner's publish list and every reader's pull list are
	// indexed per partition so each worker drains its own side in
	// parallel. Foreign registers a cone reads are read-only state
	// refreshed by the exchange; their initial values are preloaded at
	// reset via ConstSlots.
	for ri, r := range t.RegSlots {
		owner := p.regOwner[ri]
		p.slotAuth[r.Q], p.slotAuth[r.Next] = int32(owner), int32(owner)
		for part := 0; part < n; part++ {
			if part == owner || !needs[part][r.Q] {
				continue
			}
			p.readers[ri] = append(p.readers[ri], part)
			p.pulls[part] = append(p.pulls[part], xchgEntry{q: r.Q, xi: int32(p.nExchange)})
			p.subs[part].ConstSlots = append(p.subs[part].ConstSlots,
				dfg.SlotInit{Slot: r.Q, Value: r.Init})
		}
		if len(p.readers[ri]) > 0 {
			p.pubs[owner] = append(p.pubs[owner], xchgEntry{q: r.Q, xi: int32(p.nExchange)})
			p.nExchange++
		}
	}

	// Stats.
	p.stats = PlanStats{
		Strategy:        strat.Name(),
		Partitions:      n,
		Requested:       requested,
		TotalOps:        t.TotalOps(),
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
	for _, rs := range p.readers {
		p.stats.CutSize += len(rs)
	}
	return p, nil
}

// Partitions returns the effective partition count after clamping.
func (p *Plan) Partitions() int { return len(p.subs) }

// Stats reports the plan's replication and cut figures.
func (p *Plan) Stats() PlanStats {
	st := p.stats
	st.PartitionOps = append([]int(nil), p.stats.PartitionOps...)
	return st
}

// Tensor returns the unpartitioned design tensor. Read-only.
func (p *Plan) Tensor() *oim.Tensor { return p.t }

// SubTensors returns the per-partition cone tensors. Read-only.
func (p *Plan) SubTensors() []*oim.Tensor { return p.subs }

// RegOwner reports the partition owning register ri (t.RegSlots order).
func (p *Plan) RegOwner(ri int) int { return p.regOwner[ri] }

// OutOwner reports the partition sampling output oi (t.OutputSlots order).
func (p *Plan) OutOwner(oi int) int { return p.outOwner[oi] }

// RegReaders reports the partitions, other than the owner, whose cones read
// register ri — exactly the destinations the RUM exchange updates.
func (p *Plan) RegReaders(ri int) []int {
	return append([]int(nil), p.readers[ri]...)
}

// SlotUsers reports the partitions a host poke of the LI coordinate is
// routed to: every partition whose cone consumes it, plus the owner for
// register coordinates.
func (p *Plan) SlotUsers(slot int32) []int {
	users := p.users(slot)
	out := make([]int, len(users))
	for i, u := range users {
		out[i] = int(u)
	}
	return out
}

// users is the routing list of one coordinate, ascending; it aliases the plan.
func (p *Plan) users(slot int32) []int32 {
	return p.userParts[p.userStart[slot]:p.userStart[slot+1]]
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
	kind    kernel.Kind
	engines []kernel.Engine
	outs    []uint64
	ws      *kernel.Workers

	// xbuf is the double-buffered exchange buffer of a run: cycle i
	// publishes to xbuf[i&1] while its pulls read the buffer cycle i-1
	// filled.
	xbuf [2][]uint64

	// The per-partition bodies, bound once so a dispatch allocates nothing,
	// and the run they execute: each partition's share of the poke plan
	// (consumed from the front) and the watch with the partition that
	// evaluates it. Cleared after every run — nothing per-run is retained.
	settleJob func(w int)
	cycleJob  func(w, i int) bool
	afterJob  func(w, last int)
	plans     [][]kernel.PlannedPoke
	watch     *kernel.Watch
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
		kind:    progs[0].Kind(),
		engines: make([]kernel.Engine, len(progs)),
		outs:    make([]uint64, len(p.t.OutputSlots)),
		plans:   make([][]kernel.PlannedPoke, len(progs)),
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
	in.settleJob, in.cycleJob, in.afterJob = in.settlePart, in.cyclePart, in.pullPart
	return in, nil
}

// Close stops the instance's worker goroutines. Optional — an unreachable
// instance is cleaned up by the garbage collector — but deterministic. The
// instance must not be used afterwards: Settle, Step and the bulk runs
// panic on a closed instance.
func (in *Instance) Close() { in.ws.Close() }

func (in *Instance) settlePart(w int) { in.engines[w].Settle() }

// cyclePart is one cycle of partition w inside a resident run: pull the
// foreign register values the previous cycle published, apply the
// partition's share of the poke plan, step the engine, publish its own
// committed registers, and evaluate the watch if this partition holds the
// watched value. The group then meets the other partitions at the barrier.
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
	for p := in.plans[w]; len(p) > 0 && p[0].Cycle <= i; p = in.plans[w] {
		eng.PokeSlot(p[0].Slot, p[0].Value)
		in.plans[w] = p[1:]
	}
	eng.Step()
	dst := in.xbuf[i&1]
	for _, e := range in.plan.pubs[w] {
		dst[e.xi] = eng.PeekSlot(e.q)
	}
	return in.watch != nil && w == in.watchPart && in.watch.Accepts(in.watch.Sample(eng))
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

// sample gathers each output from the partition that owns its cone.
func (in *Instance) sample() {
	for i, owner := range in.plan.outOwner {
		in.outs[i] = in.engines[owner].PeekOutput(i)
	}
}

// Name identifies the kernel configuration and partition count.
func (in *Instance) Name() string {
	return fmt.Sprintf("%s×%d", in.kind, len(in.engines))
}

// Step runs one cycle: parallel settle+commit in every partition, then the
// parallel RUM synchronisation step (the final einsum of Cascade 2). It is
// exactly a bulk run of one cycle.
func (in *Instance) Step() { in.RunBulk(kernel.RunSpec{Cycles: 1}) }

// RunCycles advances k cycles; it is RunBulk without pokes or a watch.
func (in *Instance) RunCycles(k int) { in.RunBulk(kernel.RunSpec{Cycles: k}) }

// RunBulk executes a [kernel.RunSpec] across the partitions
// (kernel.SpecRunner): one dispatch, k resident cycles in every worker with
// one barrier per cycle, one join. It returns the completed cycle count and
// whether the watch stopped the run; bit-identical to stepping by hand.
// Pokes are routed to the partitions that consume their slot ([Plan.users],
// authoritative fallback), exactly like live [Instance.PokeSlot] calls; a
// watch is evaluated by the single partition holding the authoritative
// value, and the group stops every partition at the cycle it accepts.
// A spec with a Cancel probe runs in [kernel.CancelCheckCycles] chunks —
// one dispatch/join round per chunk, the probe polled on the calling
// goroutine between rounds — so cancellation observes partition state only
// at cycle boundaries every worker has crossed.
func (in *Instance) RunBulk(spec kernel.RunSpec) (ran int, stopped bool) {
	if len(in.engines) == 1 {
		ran, stopped = kernel.RunEngine(in.engines[0], spec)
		in.sample()
		return ran, stopped
	}
	return kernel.RunChunked(spec, in.runBulkOnce)
}

// runBulkOnce is one uninterruptible dispatch of a bulk run; pokes arrive
// sorted from RunChunked.
func (in *Instance) runBulkOnce(spec kernel.RunSpec) (ran int, stopped bool) {
	if spec.Cycles <= 0 {
		return 0, false
	}
	for _, p := range spec.Pokes {
		users := in.plan.users(p.Slot)
		if len(users) == 0 {
			auth := in.plan.slotAuth[p.Slot]
			in.plans[auth] = append(in.plans[auth], p)
			continue
		}
		for _, part := range users {
			in.plans[part] = append(in.plans[part], p)
		}
	}
	if w := spec.Watch; w != nil {
		in.watch = w
		if w.OutIdx >= 0 {
			in.watchPart = in.plan.outOwner[w.OutIdx]
		} else {
			in.watchPart = int(in.plan.slotAuth[w.Slot])
		}
	}
	ran, stopped = in.ws.Lockstep(spec.Cycles, in.cycleJob, in.afterJob)
	clear(in.plans)
	in.watch = nil
	in.sample()
	return ran, stopped
}

// Settle performs one combinational evaluation in every partition without
// committing registers, refreshing the sampled outputs.
func (in *Instance) Settle() {
	in.ws.Do(in.settleJob)
	in.sample()
}

// Reset restores every partition. Safe between cycles: workers are parked
// on their command channels whenever no Step or Settle is in flight.
func (in *Instance) Reset() {
	for _, e := range in.engines {
		e.Reset()
	}
	for i := range in.outs {
		in.outs[i] = 0
	}
}

// PokeInput drives a primary input in every partition whose cone reads it.
// Partitions that never consume the input skip the write — their copy is
// dead state — so per-cycle stimulus costs the cut's fan-out, not a full
// broadcast.
func (in *Instance) PokeInput(idx int, v uint64) {
	slot := in.plan.t.InputSlots[idx]
	for _, part := range in.plan.users(slot) {
		in.engines[part].PokeInput(idx, v)
	}
}

// PeekOutput reads a primary output sampled at the last Step or Settle.
func (in *Instance) PeekOutput(idx int) uint64 { return in.outs[idx] }

// PeekSlot reads an LI coordinate from a partition holding an authoritative
// value: the owner for register coordinates, the sampling owner for output
// coordinates. Other interior coordinates are only guaranteed fresh in
// partitions whose cones compute them.
func (in *Instance) PeekSlot(slot int32) uint64 {
	return in.engines[in.plan.slotAuth[slot]].PeekSlot(slot)
}

// PokeSlot writes an LI coordinate (host-DUT communication, §6.2) in every
// partition that consumes it — the cones reading the coordinate plus, for
// register coordinates, the owner that commits it. A non-authoritative
// engine is never silently skipped: the routing list is exactly the set
// whose next settle depends on the value, which keeps DMI pokes
// bit-identical to the unpartitioned engine. Coordinates no partition
// consumes fall back to the authoritative engine so Peek still observes
// the write.
func (in *Instance) PokeSlot(slot int32, v uint64) {
	users := in.plan.users(slot)
	if len(users) == 0 {
		in.engines[in.plan.slotAuth[slot]].PokeSlot(slot, v)
		return
	}
	for _, part := range users {
		in.engines[part].PokeSlot(slot, v)
	}
}

// RegSnapshot reassembles the full register state in t.RegSlots order.
func (in *Instance) RegSnapshot() []uint64 {
	out := make([]uint64, len(in.plan.t.RegSlots))
	for part, regs := range in.plan.ownedRegs {
		snap := in.engines[part].RegSnapshot()
		for i, ri := range regs {
			out[ri] = snap[i]
		}
	}
	return out
}

// Tensor returns the unpartitioned design tensor.
func (in *Instance) Tensor() *oim.Tensor { return in.plan.t }

// Partitions returns the partition count.
func (in *Instance) Partitions() int { return len(in.engines) }
