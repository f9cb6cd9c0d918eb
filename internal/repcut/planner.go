package repcut

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

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
// Both work from every register's cone as a bitset over operations. The
// cones come from one sweep in reverse layer order that carries, per
// operation, the set of registers whose cone holds it ([fanIn.sweep]);
// transposing that operation × register matrix 64 × 64 bits at a time gives
// the cones ([analyze]). A move is priced with popcounts of the cone's words
// against two bitsets per partition that every move keeps current —
// operations the partition holds, and operations only one of its registers
// holds ([refiner.priceOps]).

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

// bitset is a fixed-capacity set of small non-negative integers, used for
// per-register fan-in cones over global operation indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) flip(i int) { b[i>>6] ^= 1 << (uint(i) & 63) }

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

func (b bitset) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andCount is |a ∩ b|.
func andCount(a, b bitset) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
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

// jaccard is |a∩b| / |a∪b|, 0 when both are empty.
func jaccard(a, b bitset, sizeA, sizeB int) float64 {
	inter := andCount(a, b)
	union := sizeA + sizeB - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// analysis is the per-register fan-in structure the planner works from: for
// every register, the set of operations (as global op indices, layer-major)
// its next-state computation transitively needs, and the registers whose
// committed Q values that cone reads.
type analysis struct {
	numOps  int
	cones   []bitset // per register: op-index members of the fan-in cone
	coneOps []int    // popcount(cones[ri])
	regSrc  [][]int  // per register: sorted register indices whose Q the cone reads
}

// analyze computes every register's fan-in cone from one sweep that labels
// each register's Next with the register. The register Qs a cone reads are
// its regSrc — the edges the RUM exchange would carry if reader and owner
// end up in different partitions. The cones are the sweep's op sets
// transposed, 64 ops × 64 registers at a time, and the source sets behind
// regSrc its reader sets transposed the same way; only the analysis
// outlives the call.
func analyze(t *oim.Tensor, f *fanIn) *analysis {
	numOps, nr := len(f.args), len(t.RegSlots)
	ls := f.sweep(f.next, nil, nr)

	a := &analysis{
		numOps:  numOps,
		cones:   make([]bitset, nr),
		coneOps: make([]int, nr),
		regSrc:  make([][]int, nr),
	}
	ow := (numOps + 63) / 64
	coneWords := transpose(ls.held, numOps, nr)
	for ri := range a.cones {
		a.cones[ri] = coneWords[ri*ow : (ri+1)*ow : (ri+1)*ow]
		a.coneOps[ri] = a.cones[ri].popcount()
	}
	// Transposed, the reader sets are the source sets; regSrc is cut from
	// one slab they size exactly.
	srcSets := transpose(ls.read, nr, nr)
	slab := make([]int, bitset(srcSets).popcount())
	for ri := range a.regSrc {
		set := bitset(srcSets[ri*ls.words:][:ls.words])
		if k := set.popcount(); k > 0 {
			src := slab[:0:k]
			set.forEachBit(func(q int) { src = append(src, q) })
			a.regSrc[ri], slab = src, slab[k:]
		}
	}
	return a
}

// transpose returns the rows × cols bit matrix m — each row a bitset of
// (cols+63)/64 words — transposed: cols rows of (rows+63)/64 words, bit j of
// row i becoming bit i of row j. It goes 64 × 64 bits at a time and skips
// empty blocks.
func transpose(m []uint64, rows, cols int) []uint64 {
	w, tw := (cols+63)/64, (rows+63)/64
	t := make([]uint64, cols*tw)
	var blk [64]uint64
	for rb := 0; rb < tw; rb++ {
		for cb := 0; cb < w; cb++ {
			var seen uint64
			for i := range blk {
				blk[i] = 0
				if r := rb*64 + i; r < rows {
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
	sort.SliceStable(order, func(i, j int) bool {
		return a.coneOps[order[i]] > a.coneOps[order[j]]
	})

	// Farthest-first seeding: the largest cone, then whatever register is
	// least similar to every seed so far (ties to the larger cone via the
	// order scan). One seed per partition guarantees none ends up empty.
	seeds := []int{order[0]}
	bestSim := make([]float64, nr) // max Jaccard to any chosen seed
	for _, ri := range order[1:] {
		bestSim[ri] = jaccard(a.cones[seeds[0]], a.cones[ri], a.coneOps[seeds[0]], a.coneOps[ri])
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
				s := jaccard(a.cones[next], a.cones[ri], a.coneOps[next], a.coneOps[ri])
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
// design: per-partition reference counts of cone membership (for the op
// deltas), mirrored a word at a time by two bitsets, and of register reads
// (for the exchange deltas).
type refiner struct {
	a     *analysis
	n     int
	owner []int // -1 until the seed has placed the register
	owned []int
	// cnt[p][op] counts owned cones in p containing op; the partition's
	// replicated op count is the number of nonzero entries, tracked in
	// unionOps[p].
	cnt      [][]int32
	unionOps []int
	// live[p] holds the ops with cnt[p][op] > 0 and once[p] those with
	// cnt[p][op] == 1, kept current by moveOps: a cone's words ANDed with
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
}

func newRefiner(a *analysis, n int) *refiner {
	nr := len(a.cones)
	r := &refiner{
		a:        a,
		n:        n,
		owner:    make([]int, nr),
		owned:    make([]int, n),
		cnt:      make([][]int32, n),
		unionOps: make([]int, n),
		live:     make([]bitset, n),
		once:     make([]bitset, n),
		readCnt:  make([][]int32, n),
		readers:  make([]int32, nr),
		pulls:    make([]int, n),
		pubs:     make([]int, n),
	}
	for ri := range r.owner {
		r.owner[ri] = -1
	}
	for p := 0; p < n; p++ {
		r.cnt[p] = make([]int32, a.numOps)
		r.live[p], r.once[p] = newBitset(a.numOps), newBitset(a.numOps)
		r.readCnt[p] = make([]int32, nr)
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
		rem = andCount(cone, r.once[p])
	}
	return rem, r.a.coneOps[ri] - andCount(cone, r.live[q])
}

// moveOps applies what priceOps priced: the expensive half of a move.
func (r *refiner) moveOps(ri, p, q int) {
	if p >= 0 {
		cntP, liveP, onceP := r.cnt[p], r.live[p], r.once[p]
		r.a.cones[ri].forEachBit(func(op int) {
			switch cntP[op]--; cntP[op] {
			case 0:
				r.unionOps[p]--
				liveP.flip(op)
				onceP.flip(op)
			case 1:
				onceP.flip(op)
			}
		})
	}
	cntQ, liveQ, onceQ := r.cnt[q], r.live[q], r.once[q]
	r.a.cones[ri].forEachBit(func(op int) {
		switch cntQ[op]++; cntQ[op] {
		case 1:
			r.unionOps[q]++
			liveQ.flip(op)
			onceQ.flip(op)
		case 2:
			onceQ.flip(op)
		}
	})
}

// moveReads takes register ri's reads, and its ownership, out of partition p
// and into q (-1 on either side: unplaced), keeping the exchange counts
// current. It is cheap — O(sources of ri + n) — and its own inverse, so a
// candidate's exchange cost is read by applying it and taking it back.
func (r *refiner) moveReads(ri, p, q int) {
	src := r.a.regSrc[ri]
	if p >= 0 {
		readP := r.readCnt[p]
		for _, s := range src {
			if s == ri {
				continue
			}
			readP[s]--
			if o := r.owner[s]; readP[s] == 0 && o >= 0 && o != p {
				r.pulls[p]--
				if r.readers[s]--; r.readers[s] == 0 {
					r.pubs[o]--
				}
			}
		}
		for x := range r.pulls {
			if x != p && r.readCnt[x][ri] > 0 {
				r.pulls[x]--
			}
		}
		if r.readers[ri] > 0 {
			r.pubs[p]--
		}
		r.readers[ri] = 0
		r.owned[p]--
	}
	r.owner[ri] = q
	if q >= 0 {
		r.owned[q]++
		for x := range r.pulls {
			if x != q && r.readCnt[x][ri] > 0 {
				r.pulls[x]++
				r.readers[ri]++
			}
		}
		if r.readers[ri] > 0 {
			r.pubs[q]++
		}
		readQ := r.readCnt[q]
		for _, s := range src {
			if s == ri {
				continue
			}
			readQ[s]++
			if o := r.owner[s]; readQ[s] == 1 && o >= 0 && o != q {
				r.pulls[q]++
				if r.readers[s]++; r.readers[s] == 1 {
					r.pubs[o]++
				}
			}
		}
	}
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
// partition p (-1: unplaced) and put into q: the ops priced, the exchange
// read by applying the cheap half of the move and taking it back.
func (r *refiner) try(ri, p, q int) (span, work int) {
	rem, add := r.priceOps(ri, p, q)
	r.moveReads(ri, p, q)
	if p >= 0 {
		r.unionOps[p] -= rem
	}
	r.unionOps[q] += add
	span, work = r.cost()
	if p >= 0 {
		r.unionOps[p] += rem
	}
	r.unionOps[q] -= add
	r.moveReads(ri, q, p)
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
