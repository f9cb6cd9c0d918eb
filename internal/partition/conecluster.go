package partition

import (
	"slices"
	"sort"

	"rteaal/internal/oim"
)

// ConeCluster clusters registers by fan-in-cone overlap: partitions are
// seeded farthest-first with mutually dissimilar cones, then every remaining
// register, largest cone first, joins the partition where the plan then
// costs least — [MinCut]'s (makespan, work) pair. Registers sharing
// combinational logic therefore co-locate (joining their cluster adds few
// operations and no exchange), the shared logic is replicated once rather
// than once per partition, and a partition that has pulled ahead stops
// attracting registers as soon as copying their logic elsewhere is cheaper
// than waiting for it.
type ConeCluster struct{}

// Name implements [Strategy].
func (ConeCluster) Name() string { return "cone-cluster" }

// Assign implements [Strategy].
func (ConeCluster) Assign(t *oim.Tensor, n int) ([]int, error) {
	if err := checkAssignArgs(t, n); err != nil {
		return nil, err
	}
	if n == 1 {
		return make([]int, len(t.RegSlots)), nil // trivial; skip the analysis
	}
	r := newRefiner(analyze(t), n)
	r.seed()
	return r.owner, nil
}

// seed is the shared greedy clustering; [MinCut] refines its result, so both
// strategies stay in lock-step on the same analysis and the same objective.
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
