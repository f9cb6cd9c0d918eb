package partition

import (
	"rteaal/internal/oim"
)

// MinCut is the highest-quality strategy: it seeds with [ConeCluster] and
// then runs KL/FM-style boundary refinement, moving one register at a time
// to whichever partition most lowers the plan's cost — the same
// lexicographic pair the seed places by:
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
// with 8). Every applied move strictly lowers the pair and never empties a
// partition, so refinement terminates.
type MinCut struct{}

// Name implements [Strategy].
func (MinCut) Name() string { return "min-cut" }

// maxRefinePasses bounds refinement; in practice the hill converges in a
// handful of passes, this is a safety net for huge designs.
const maxRefinePasses = 8

// Assign implements [Strategy].
func (MinCut) Assign(t *oim.Tensor, n int) ([]int, error) {
	if err := checkAssignArgs(t, n); err != nil {
		return nil, err
	}
	if n == 1 {
		return make([]int, len(t.RegSlots)), nil // trivial; skip the analysis
	}
	r := newRefiner(analyze(t), n)
	r.seed()
	r.refine()
	return r.owner, nil
}

// refiner holds the incremental bookkeeping that makes pricing a placement
// or a move O(cone size) instead of O(design): per-partition reference
// counts of cone membership (for the op deltas) and of register reads (for
// the exchange deltas).
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
		r.readCnt[p] = make([]int32, nr)
	}
	return r
}

// priceOps is what taking register ri out of partition p (-1: the seed
// placing an unplaced register) and into q would do to their op counts: the
// cone ops p drops and the ops q gains.
func (r *refiner) priceOps(ri, p, q int) (rem, add int) {
	cntQ := r.cnt[q]
	if p < 0 {
		r.a.cones[ri].forEachBit(func(op int) {
			if cntQ[op] == 0 {
				add++
			}
		})
		return 0, add
	}
	cntP := r.cnt[p]
	r.a.cones[ri].forEachBit(func(op int) {
		if cntP[op] == 1 {
			rem++
		}
		if cntQ[op] == 0 {
			add++
		}
	})
	return rem, add
}

// moveOps applies what priceOps priced: the expensive half of a move.
func (r *refiner) moveOps(ri, p, q int) {
	if p >= 0 {
		cntP := r.cnt[p]
		r.a.cones[ri].forEachBit(func(op int) {
			cntP[op]--
			if cntP[op] == 0 {
				r.unionOps[p]--
			}
		})
	}
	cntQ := r.cnt[q]
	r.a.cones[ri].forEachBit(func(op int) {
		if cntQ[op] == 0 {
			r.unionOps[q]++
		}
		cntQ[op]++
	})
}

// moveReads takes register ri's reads, and its ownership, out of partition p
// and into q (-1 on either side: unplaced), keeping the exchange counts
// current. It is cheap — O(sources of ri + n) — and its own inverse, so a
// candidate's exchange cost is read by applying it and taking it back.
func (r *refiner) moveReads(ri, p, q int) {
	src := r.a.regSrc[ri]
	if p >= 0 {
		for _, s := range src {
			if s == ri {
				continue
			}
			r.readCnt[p][s]--
			if o := r.owner[s]; r.readCnt[p][s] == 0 && o >= 0 && o != p {
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
		for _, s := range src {
			if s == ri {
				continue
			}
			r.readCnt[q][s]++
			if o := r.owner[s]; r.readCnt[q][s] == 1 && o >= 0 && o != q {
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
