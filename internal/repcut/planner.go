package repcut

import (
	"fmt"
	"math/bits"
	"slices"

	"rteaal/internal/oim"
)

// The planner decides which partition owns each register: the one decision
// a plan rests on, since cones, sub-tensors, the RUM and the stats are pure
// functions of it. It minimises one cost, lexicographically:
//
//	makespan = max_p (|union of owned cones in p| + registers p publishes + registers p pulls)
//	work     = Σ_p |union of owned cones in p|  +  cut edges
//
// A lock-step cycle ends when its slowest partition does, so the makespan —
// everything one worker does between two barriers, one unit per operation
// and per exchanged register — is what a cycle costs; replicated operations
// plus register→reader RUM edges only break ties under it. Minimising the
// work alone has its optimum at "everything in one partition" and needs a
// balance cap to be kept from it; the makespan needs none. Counting a
// partition's operations alone would be blind the other way: it buys the
// last percent of balance with any amount of copied logic and exchanged
// registers (r1 at scale 8, P = 2: 6,184 | 6,183 ops with 431 registers
// crossing ran at 0.6x the plan that leaves the uncore whole, 6,268 | 1,399
// with 8). Balance is therefore not a constraint with a tolerance but a
// consequence: a partition is left larger than the others exactly when
// evening it out would cost more in copied logic and exchanged registers
// than it saves.
//
// The planner seeds by clustering registers on fan-in-cone overlap
// ([refiner.seed]) and then runs KL/FM-style boundary refinement
// ([refiner.refine]), moving one register at a time to whichever partition
// most lowers the pair.
//
// Both work from every register's cone as a bitset over op classes. The
// cones come from one sweep in reverse layer order that carries, per
// operation, the set of registers whose cone holds it ([fanIn.sweep]).
// Operations with equal non-empty sets lie in exactly the same cones, so
// every count the planner keeps is the same for all of them: they are one
// class, weighted by how many operations it stands for, and transposing the
// class × register matrix 64 × 64 bits at a time gives the cones
// ([analyze]). On r4/8 the 11,879 operations form 2,846 classes and the
// cones hold 18.6x fewer bits than over operations. A move's ops are priced
// with weighted popcounts of the cone's words against two bitsets per
// partition that every move keeps current — classes the partition holds, and
// classes only one of its registers holds ([refiner.priceOps]) — and its
// exchange by popcounts of the words of the cone's source registers against
// bitsets of the exchange state ([refiner.priceReads]). Pricing is
// read-only; only the move applied writes either.

// fanIn is the design's combinational fan-in at slot granularity, built once
// per plan. Every cone a plan needs — each register's for the planner, each
// output's for the output vote, each partition's for its sub-tensor and its
// RUM reads — comes from one [fanIn.sweep] over it, labelled differently.
type fanIn struct {
	producer []int32   // slot → index of the op writing it (layer-major), -1 for a source
	args     [][]int32 // op index → its operands, aliasing the tensor's RCoord
	regOf    []int32   // slot → the register whose Q it is, -1 for none
	next     []int32   // register → its Next slot
}

func newFanIn(t *oim.Tensor) *fanIn {
	f := &fanIn{
		producer: make([]int32, t.NumSlots),
		args:     make([][]int32, 0, t.TotalOps()),
		regOf:    make([]int32, t.NumSlots),
		next:     make([]int32, len(t.RegSlots)),
	}
	for s := range f.producer {
		f.producer[s], f.regOf[s] = -1, -1
	}
	t.Ops(func(_ int, _ uint16, out int32, args []int32) {
		f.producer[out] = int32(len(f.args))
		f.args = append(f.args, args)
	})
	for ri, r := range t.RegSlots {
		f.regOf[r.Q], f.next[ri] = int32(ri), r.Next
	}
	return f
}

// labelSets is what a [fanIn.sweep] returns: two slabs of label sets, words
// words each.
type labelSets struct {
	words int
	held  []uint64 // op index → the labels whose roots' cones hold the op
	read  []uint64 // register → the labels whose roots' cones read its Q
}

func (ls *labelSets) op(id int) bitset { return ls.held[id*ls.words:][:ls.words] }

func (ls *labelSets) reg(ri int) bitset { return ls.read[ri*ls.words:][:ls.words] }

// sweep labels the fan-in cones of roots: root i carries label[i] in [0,
// labels) — its own index when label is nil — and the result holds, for
// every op and every register Q, the labels whose roots' cones hold or read
// it. A cone stops at sources: primary inputs, constants and register Qs.
//
// Each root seeds its label at whatever writes it; then, in descending op
// index — layer-major, so a reverse topological order, and every op's set
// is complete before it is read — each op ORs its set into its operands:
// into the producing op's set, or, for a register Q, into that register's
// reader set.
func (f *fanIn) sweep(roots []int32, label []int, labels int) *labelSets {
	w := (labels + 63) / 64
	ls := &labelSets{
		words: w,
		held:  make([]uint64, len(f.args)*w),
		read:  make([]uint64, len(f.next)*w),
	}
	setOf := func(s int32) bitset {
		if q := f.regOf[s]; q >= 0 {
			return ls.reg(int(q))
		}
		if id := f.producer[s]; id >= 0 {
			return ls.op(int(id))
		}
		return nil // an input or a constant
	}
	for i, s := range roots {
		if set := setOf(s); set != nil {
			if label != nil {
				set.set(label[i])
			} else {
				set.set(i)
			}
		}
	}
	for op := len(f.args) - 1; op >= 0; op-- {
		held := ls.op(op)
		if held.empty() {
			continue
		}
		for _, arg := range f.args[op] {
			if set := setOf(arg); set != nil {
				set.orWith(held)
			}
		}
	}
	return ls
}

// sweepBudget bounds the bytes of one [fanIn.sweep]: one label set per op
// and per register. NewPlan refuses a design past it before it sweeps:
// 512 MiB admits r8 (140k ops, 17k registers) and refuses r24 (321k ops,
// 40k registers).
const sweepBudget = 512 << 20

// checkOwner checks an ownership vector handed to [NewPlan]: one owner per
// register, owners in range, and — when the design has at least n
// registers — no empty partition.
func checkOwner(owner []int, regs, n int) error {
	if len(owner) != regs {
		return fmt.Errorf("owner vector covers %d of %d registers", len(owner), regs)
	}
	count := make([]int, n)
	for ri, p := range owner {
		if p < 0 || p >= n {
			return fmt.Errorf("register %d assigned to partition %d of %d", ri, p, n)
		}
		count[p]++
	}
	if regs >= n {
		for p, c := range count {
			if c == 0 {
				return fmt.Errorf("partition %d owns no registers", p)
			}
		}
	}
	return nil
}

// planOwners is the planner: the owner vector of t's registers over n
// partitions, n at most the register count.
func planOwners(t *oim.Tensor, f *fanIn, n int) []int {
	if n == 1 {
		return make([]int, len(t.RegSlots)) // trivial; skip the analysis
	}
	r := newRefiner(analyze(t, f), n)
	r.seed()
	r.refine()
	return r.owner
}

// bitset is a fixed-capacity set of small non-negative integers: a cone's
// op classes, a partition's held classes, an op's or a register's labels.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) flip(i int) { b[i>>6] ^= 1 << (uint(i) & 63) }

// put makes i a member when on holds and not one otherwise.
func (b bitset) put(i int, on bool) {
	if on {
		b.set(i)
	} else {
		b[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// orWith adds c's members to b.
func (b bitset) orWith(c bitset) {
	for i, w := range c {
		b[i] |= w
	}
}

// forEachBit calls f with every member in ascending order.
func (b bitset) forEachBit(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// analysis is the per-register fan-in structure the planner works from: for
// every register, the operations (as global op indices, layer-major) its
// next-state computation transitively needs, as classes, and the registers
// whose committed Q values that cone reads.
//
// A class is the operations held by exactly the same registers' cones. The
// classes run in ascending weight, so a word of a class bitset mostly holds
// classes of one weight and a weighted count is mostly popcounts
// ([analysis.interOps]).
type analysis struct {
	numOps  int
	class   []int32  // op index → its class, -1 for an op no register's cone holds
	weight  []int32  // class → the operations it stands for, ascending
	wordW   []int32  // word of a class bitset → the weight of every class in it, 0 when they differ
	cones   []bitset // per register: the classes of its fan-in cone
	coneOps []int    // per register: the operations of its cone
	regSrc  []bitset // per register: the registers whose Q the cone reads
}

// interOps is the number of operations the classes in both x and y stand for.
func (a *analysis) interOps(x, y bitset) int {
	n := 0
	for i, w := range x {
		m := w & y[i]
		if m == 0 {
			continue
		}
		if ww := a.wordW[i]; ww > 0 {
			n += int(ww) * bits.OnesCount64(m)
			continue
		}
		for ; m != 0; m &= m - 1 {
			n += int(a.weight[i<<6+bits.TrailingZeros64(m)])
		}
	}
	return n
}

// jaccard is |a∩b| / |a∪b| in operations, 0 when both are empty.
func (a *analysis) jaccard(x, y bitset, sizeX, sizeY int) float64 {
	inter := a.interOps(x, y)
	union := sizeX + sizeY - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// analyze computes every register's fan-in cone from one sweep that labels
// each register's Next with the register. Ops whose label sets are equal and
// non-empty are grouped into classes by a hash table over the sets; the
// cones are the class × register matrix — each class's set, taken from one
// op of it — transposed, 64 classes × 64 registers at a time. The register
// Qs a cone reads are its regSrc — the edges the RUM exchange would carry if
// reader and owner end up in different partitions — read off the sweep's
// reader sets. Only the analysis outlives the call.
func analyze(t *oim.Tensor, f *fanIn) *analysis {
	numOps, nr := len(f.args), len(t.RegSlots)
	ls := f.sweep(f.next, nil, nr)

	a := &analysis{
		numOps:  numOps,
		class:   make([]int32, numOps),
		cones:   make([]bitset, nr),
		coneOps: make([]int, nr),
		regSrc:  make([]bitset, nr),
	}

	// Classes in order of first op; table holds class+1 per hash slot, 0
	// for free, at most half full.
	bitsLog := bits.Len(uint(numOps)) + 1
	table := make([]int32, 1<<bitsLog)
	var rep []int32 // class → an op of it
	var weight []int32
	for op := range numOps {
		set := ls.op(op)
		if set.empty() {
			a.class[op] = -1
			continue
		}
		h := uint64(0)
		for _, w := range set {
			h = (h ^ w) * 0x9e3779b97f4a7c15
			h ^= h >> 31
		}
		for i := h >> (64 - bitsLog); ; i = (i + 1) & (1<<bitsLog - 1) {
			c := table[i] - 1
			if c < 0 {
				c = int32(len(rep))
				table[i] = c + 1
				rep, weight = append(rep, int32(op)), append(weight, 0)
			} else if !slices.Equal(ls.op(int(rep[c])), set) {
				continue
			}
			a.class[op] = c
			weight[c]++
			break
		}
	}

	// Renumber the classes in ascending weight (stable, so by first op
	// within a weight); rows[k] is an op of class k, its row of the class ×
	// register matrix.
	nc := len(rep)
	order := make([]int32, nc)
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortStableFunc(order, func(x, y int32) int { return int(weight[x] - weight[y]) })
	renum, rows := make([]int32, nc), make([]int32, nc)
	a.weight = make([]int32, nc)
	for k, c := range order {
		renum[c], a.weight[k], rows[k] = int32(k), weight[c], rep[c]
	}
	for op, c := range a.class {
		if c >= 0 {
			a.class[op] = renum[c]
		}
	}
	cw := (nc + 63) / 64
	a.wordW = make([]int32, cw)
	for i := range a.wordW {
		if lo, hi := a.weight[i*64], a.weight[min(i*64+63, nc-1)]; lo == hi {
			a.wordW[i] = lo
		}
	}

	coneWords := transpose(ls.held, rows, nr)
	for ri := range a.cones {
		a.cones[ri] = coneWords[ri*cw : (ri+1)*cw : (ri+1)*cw]
		a.coneOps[ri] = a.interOps(a.cones[ri], a.cones[ri])
	}

	// Register q's reader set holds ri exactly when ri's cone reads q: the
	// reader sets transposed are the source sets.
	srcWords := transpose(ls.read, nil, nr)
	for ri := range a.regSrc {
		a.regSrc[ri] = srcWords[ri*ls.words : (ri+1)*ls.words : (ri+1)*ls.words]
	}
	return a
}

// transpose returns the bit matrix whose row i is row rows[i] of m — each
// row of m a bitset of (cols+63)/64 words, and nil rows all of m's rows in
// order — transposed: cols rows of one bit per row of the matrix, bit j of
// row i becoming bit i of row j. It goes 64 × 64 bits at a time and skips
// empty blocks.
func transpose(m []uint64, rows []int32, cols int) []uint64 {
	w, n := (cols+63)/64, len(rows)
	if rows == nil && w > 0 {
		n = len(m) / w
	}
	tw := (n + 63) / 64
	t := make([]uint64, cols*tw)
	var blk [64]uint64
	for rb := 0; rb < tw; rb++ {
		for cb := 0; cb < w; cb++ {
			var seen uint64
			for i := range blk {
				blk[i] = 0
				if r := rb*64 + i; r < n && rows != nil {
					blk[i] = m[int(rows[r])*w+cb]
				} else if r < n {
					blk[i] = m[r*w+cb]
				}
				seen |= blk[i]
			}
			if seen == 0 {
				continue
			}
			transpose64(&blk)
			for i, x := range blk[:min(64, cols-cb*64)] {
				t[(cb*64+i)*tw+rb] = x
			}
		}
	}
	return t
}

// transpose64 transposes a 64 × 64 bit matrix in place: bit j of row i
// becomes bit i of row j. Each round swaps the off-diagonal blocks of every
// 2j × 2j block, halving j from 32 down to 1.
func transpose64(m *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			x := (m[k]>>j ^ m[k+j]) & mask
			m[k+j] ^= x
			m[k] ^= x << j
		}
		mask ^= mask << (j >> 1)
	}
}

// seed clusters registers by fan-in-cone overlap: partitions are seeded
// farthest-first with mutually dissimilar cones, then every remaining
// register, largest cone first, joins the partition where the plan then
// costs least. Registers sharing combinational logic therefore co-locate
// (joining their cluster adds few operations and no exchange), the shared
// logic is replicated once rather than once per partition, and a partition
// that has pulled ahead stops attracting registers as soon as copying their
// logic elsewhere is cheaper than waiting for it.
func (r *refiner) seed() {
	a, n := r.a, r.n
	nr := len(a.cones)
	if nr == 0 {
		return
	}

	// Registers in descending cone size (stable by index) so the big,
	// hard-to-place cones anchor partitions first.
	order := make([]int, nr)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return a.coneOps[y] - a.coneOps[x] })

	// Farthest-first seeding: the largest cone, then whatever register is
	// least similar to every seed so far (ties to the larger cone via the
	// order scan). One seed per partition guarantees none ends up empty.
	seeds := []int{order[0]}
	bestSim := make([]float64, nr) // max Jaccard to any chosen seed
	for _, ri := range order[1:] {
		bestSim[ri] = a.jaccard(a.cones[seeds[0]], a.cones[ri], a.coneOps[seeds[0]], a.coneOps[ri])
	}
	for len(seeds) < n {
		next, nextSim := -1, 2.0
		for _, ri := range order {
			if !slices.Contains(seeds, ri) && bestSim[ri] < nextSim {
				next, nextSim = ri, bestSim[ri]
			}
		}
		seeds = append(seeds, next)
		for _, ri := range order {
			if ri != next {
				s := a.jaccard(a.cones[next], a.cones[ri], a.coneOps[next], a.coneOps[ri])
				bestSim[ri] = max(bestSim[ri], s)
			}
		}
	}
	for p, ri := range seeds {
		r.move(ri, -1, p)
	}

	// Every other register goes where the plan then costs least (lowest
	// partition on a tie): a cluster attracts the registers that overlap it
	// (they add little work there and would have to be fed across the cut
	// anywhere else) until it sets the makespan, and from then on only those
	// whose logic would cost more to copy than it costs to wait for.
	for _, ri := range order {
		if r.owner[ri] != -1 {
			continue
		}
		best, bestSpan, bestWork := -1, 0, 0
		for q := 0; q < n; q++ {
			if span, work := r.try(ri, -1, q); best < 0 || span < bestSpan || span == bestSpan && work < bestWork {
				best, bestSpan, bestWork = q, span, work
			}
		}
		r.move(ri, -1, best)
	}
}

// maxRefinePasses bounds refinement; in practice the hill converges in a
// handful of passes, this is a safety net for huge designs.
const maxRefinePasses = 8

// refiner holds the incremental bookkeeping that makes pricing a placement
// or a move a few popcounts over a cone's words instead of a walk of the
// design: per-partition reference counts of cone membership per class (for
// the op deltas) and of register reads (for the exchange deltas), each
// mirrored a word at a time by bitsets.
type refiner struct {
	a     *analysis
	n     int
	owner []int // -1 until the seed has placed the register
	owned []int
	// cnt[p][c] counts owned cones in p containing class c; the partition's
	// replicated op count is the weight of the classes with nonzero
	// entries, tracked in unionOps[p].
	cnt      [][]int32
	unionOps []int
	// live[p] holds the classes with cnt[p][c] > 0 and once[p] those with
	// cnt[p][c] == 1, kept current by moveOps: a cone's words ANDed with
	// them price what a move adds to q and drops from p.
	live, once []bitset
	// readCnt[p][ri] counts registers owned by p — excluding ri itself —
	// whose cones read ri's Q. A placed register ri crosses the cut into p
	// exactly when p ≠ owner[ri] and readCnt[p][ri] > 0: readers[ri] counts
	// those partitions, pulls[p] the registers p reads across the cut and
	// pubs[p] the registers p owns that some other partition reads.
	readCnt     [][]int32
	readers     []int32
	pulls, pubs []int
	// reads[p] holds the registers with readCnt[p][ri] > 0 and readOnce[p]
	// those with readCnt[p][ri] == 1, ownedBy[p] the registers p owns,
	// placed those any partition owns, and noReader and oneReader those
	// with readers[ri] == 0 and == 1, kept current by moveReads: a source
	// set's words ANDed with them price what a move does to the exchange.
	reads, readOnce, ownedBy    []bitset
	placed, noReader, oneReader bitset
	// dPulls and dPubs are priceReads' per-partition deltas.
	dPulls, dPubs []int
}

func newRefiner(a *analysis, n int) *refiner {
	nr, nc := len(a.cones), len(a.weight)
	r := &refiner{
		a:         a,
		n:         n,
		owner:     make([]int, nr),
		owned:     make([]int, n),
		cnt:       make([][]int32, n),
		unionOps:  make([]int, n),
		live:      make([]bitset, n),
		once:      make([]bitset, n),
		readCnt:   make([][]int32, n),
		readers:   make([]int32, nr),
		pulls:     make([]int, n),
		pubs:      make([]int, n),
		reads:     make([]bitset, n),
		readOnce:  make([]bitset, n),
		ownedBy:   make([]bitset, n),
		placed:    newBitset(nr),
		noReader:  newBitset(nr),
		oneReader: newBitset(nr),
		dPulls:    make([]int, n),
		dPubs:     make([]int, n),
	}
	for ri := range r.owner {
		r.owner[ri] = -1
		r.noReader.set(ri)
	}
	for p := 0; p < n; p++ {
		r.cnt[p] = make([]int32, nc)
		r.live[p], r.once[p] = newBitset(nc), newBitset(nc)
		r.readCnt[p] = make([]int32, nr)
		r.reads[p], r.readOnce[p], r.ownedBy[p] = newBitset(nr), newBitset(nr), newBitset(nr)
	}
	return r
}

// priceOps is what taking register ri out of partition p (-1: the seed
// placing an unplaced register) and into q would do to their op counts: the
// cone ops only ri holds in p, which p drops, and the cone ops q does not
// hold yet, which it gains.
func (r *refiner) priceOps(ri, p, q int) (rem, add int) {
	cone := r.a.cones[ri]
	if p >= 0 {
		rem = r.a.interOps(cone, r.once[p])
	}
	return rem, r.a.coneOps[ri] - r.a.interOps(cone, r.live[q])
}

// moveOps applies what priceOps priced: the expensive half of a move.
func (r *refiner) moveOps(ri, p, q int) {
	weight := r.a.weight
	if p >= 0 {
		cntP, liveP, onceP := r.cnt[p], r.live[p], r.once[p]
		r.a.cones[ri].forEachBit(func(c int) {
			switch cntP[c]--; cntP[c] {
			case 0:
				r.unionOps[p] -= int(weight[c])
				liveP.flip(c)
				onceP.flip(c)
			case 1:
				onceP.flip(c)
			}
		})
	}
	cntQ, liveQ, onceQ := r.cnt[q], r.live[q], r.once[q]
	r.a.cones[ri].forEachBit(func(c int) {
		switch cntQ[c]++; cntQ[c] {
		case 1:
			r.unionOps[q] += int(weight[c])
			liveQ.flip(c)
			onceQ.flip(c)
		case 2:
			onceQ.flip(c)
		}
	})
}

// priceReads is what taking register ri out of partition p (-1: unplaced)
// and into q ≠ p would do to every partition's pulls and pubs, left in
// dPulls and dPubs: the change moveReads would make, read without making it.
func (r *refiner) priceReads(ri, p, q int) {
	clear(r.dPulls)
	clear(r.dPubs)
	// ri's own reads: q starts reading the placed foreign sources none of
	// its registers reads yet, p stops reading those only ri read there,
	// and a source whose readers go 0 → 1 or 1 → 0 starts or stops being
	// published by its owner.
	for wi := range r.placed {
		placed := r.sources(ri, wi) & r.placed[wi]
		if placed == 0 {
			continue
		}
		gain := placed &^ r.reads[q][wi] &^ r.ownedBy[q][wi]
		var loss uint64
		if p >= 0 {
			loss = placed & r.readOnce[p][wi] &^ r.ownedBy[p][wi]
			r.dPulls[p] -= bits.OnesCount64(loss)
		}
		r.dPulls[q] += bits.OnesCount64(gain)
		up, down := gain&^loss&r.noReader[wi], loss&^gain&r.oneReader[wi]
		if up|down == 0 {
			continue
		}
		for o, own := range r.ownedBy {
			r.dPubs[o] += bits.OnesCount64(up&own[wi]) - bits.OnesCount64(down&own[wi])
		}
	}
	// ri's ownership: every partition reading it pulls it from q, not p,
	// and q, not p, publishes it if any does.
	if p >= 0 && r.readers[ri] > 0 {
		r.dPubs[p]--
	}
	readers := 0
	for x, read := range r.readCnt {
		if read[ri] > 0 {
			if p >= 0 && x != p {
				r.dPulls[x]--
			}
			if x != q {
				r.dPulls[x]++
				readers++
			}
		}
	}
	if readers > 0 {
		r.dPubs[q]++
	}
}

// setReaders sets readers[s], keeping noReader and oneReader current.
func (r *refiner) setReaders(s int, v int32) {
	r.readers[s] = v
	r.noReader.put(s, v == 0)
	r.oneReader.put(s, v == 1)
}

// sources is word wi of the registers ri's cone reads, ri itself left out:
// its own Q never crosses the cut.
func (r *refiner) sources(ri, wi int) uint64 {
	m := r.a.regSrc[ri][wi]
	if wi == ri>>6 {
		m &^= 1 << (uint(ri) & 63)
	}
	return m
}

// dropReads takes register ri's reads out of partition p: each source's
// count falls by one, and a placed foreign source no register of p reads
// any more leaves p's pulls and, if p was its last reader, its owner's
// pubs.
func (r *refiner) dropReads(ri, p int) {
	read, reads, once, own := r.readCnt[p], r.reads[p], r.readOnce[p], r.ownedBy[p]
	for wi := range reads {
		m := r.sources(ri, wi)
		if m == 0 {
			continue
		}
		var toOne uint64
		for b := m; b != 0; b &= b - 1 {
			s := wi<<6 + bits.TrailingZeros64(b)
			if read[s]--; read[s] == 1 {
				toOne |= b & -b
			}
		}
		gone := m & once[wi]
		reads[wi] &^= gone
		once[wi] = once[wi]&^gone | toOne
		lost := gone & r.placed[wi] &^ own[wi]
		r.pulls[p] -= bits.OnesCount64(lost)
		for ; lost != 0; lost &= lost - 1 {
			s := wi<<6 + bits.TrailingZeros64(lost)
			if r.setReaders(s, r.readers[s]-1); r.readers[s] == 0 {
				r.pubs[r.owner[s]]--
			}
		}
	}
}

// addReads puts register ri's reads into partition q: each source's count
// rises by one, and a placed foreign source no register of q read before
// joins q's pulls and, if q is its first reader, its owner's pubs.
func (r *refiner) addReads(ri, q int) {
	read, reads, once, own := r.readCnt[q], r.reads[q], r.readOnce[q], r.ownedBy[q]
	for wi := range reads {
		m := r.sources(ri, wi)
		if m == 0 {
			continue
		}
		for b := m; b != 0; b &= b - 1 {
			read[wi<<6+bits.TrailingZeros64(b)]++
		}
		fresh := m &^ reads[wi]
		reads[wi] |= m
		once[wi] = once[wi]&^m | fresh
		gained := fresh & r.placed[wi] &^ own[wi]
		r.pulls[q] += bits.OnesCount64(gained)
		for ; gained != 0; gained &= gained - 1 {
			s := wi<<6 + bits.TrailingZeros64(gained)
			if r.setReaders(s, r.readers[s]+1); r.readers[s] == 1 {
				r.pubs[r.owner[s]]++
			}
		}
	}
}

// moveReads applies what priceReads priced: it takes register ri's reads,
// and its ownership, out of partition p (-1: unplaced) and into q, keeping
// the exchange counts and their bitsets current.
func (r *refiner) moveReads(ri, p, q int) {
	if p >= 0 {
		r.dropReads(ri, p)
		for x := range r.pulls {
			if x != p && r.readCnt[x][ri] > 0 {
				r.pulls[x]--
			}
		}
		if r.readers[ri] > 0 {
			r.pubs[p]--
		}
		r.owned[p]--
		r.ownedBy[p].flip(ri)
	} else {
		r.placed.set(ri)
	}
	r.owner[ri] = q
	r.owned[q]++
	r.ownedBy[q].flip(ri)
	readers := int32(0)
	for x := range r.pulls {
		if x != q && r.readCnt[x][ri] > 0 {
			r.pulls[x]++
			readers++
		}
	}
	if r.setReaders(ri, readers); readers > 0 {
		r.pubs[q]++
	}
	r.addReads(ri, q)
}

// cost is the plan's (makespan, work) pair as it stands.
func (r *refiner) cost() (span, work int) {
	for x, ops := range r.unionOps {
		span = max(span, ops+r.pulls[x]+r.pubs[x])
		work += ops + r.pulls[x]
	}
	return span, work
}

// try is the cost the plan would have with register ri taken out of
// partition p (-1: unplaced) and put into q ≠ p, priced without changing
// the plan.
func (r *refiner) try(ri, p, q int) (span, work int) {
	rem, add := r.priceOps(ri, p, q)
	r.priceReads(ri, p, q)
	for x, ops := range r.unionOps {
		switch x {
		case p:
			ops -= rem
		case q:
			ops += add
		}
		pulls := r.pulls[x] + r.dPulls[x]
		span = max(span, ops+pulls+r.pubs[x]+r.dPubs[x])
		work += ops + pulls
	}
	return span, work
}

// move applies what try priced.
func (r *refiner) move(ri, p, q int) {
	r.moveOps(ri, p, q)
	r.moveReads(ri, p, q)
}

// refine moves registers one at a time while a move strictly lowers the
// (makespan, work) pair. No move empties a partition, so it terminates.
func (r *refiner) refine() {
	for pass := 0; pass < maxRefinePasses; pass++ {
		improved := false
		for ri := range r.owner {
			p := r.owner[ri]
			if r.owned[p] <= 1 {
				continue // never empty a partition
			}
			bestQ := -1
			bestSpan, bestWork := r.cost() // the pair to beat
			for q := 0; q < r.n; q++ {
				if q == p {
					continue
				}
				if span, work := r.try(ri, p, q); span < bestSpan || span == bestSpan && work < bestWork {
					bestQ, bestSpan, bestWork = q, span, work
				}
			}
			if bestQ >= 0 {
				r.move(ri, p, bestQ)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}
