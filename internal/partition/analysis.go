package partition

import (
	"math/bits"
	"sort"

	"rteaal/internal/oim"
)

// bitset is a fixed-capacity set of small non-negative integers, used for
// per-register fan-in cones over global operation indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

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

// analysis is the per-register fan-in structure the clustering strategies
// work from: for every register, the set of operations (as global op
// indices, layer-major) its next-state computation transitively needs, and
// the registers whose committed Q values that cone reads.
type analysis struct {
	numOps  int
	cones   []bitset // per register: op-index members of the fan-in cone
	coneOps []int    // popcount(cones[ri])
	regSrc  [][]int  // per register: sorted register indices whose Q the cone reads
}

// analyze computes the fan-in cone of every register's next-state slot. A
// cone stops at sources: primary inputs, constants, and register Q
// coordinates (which become regSrc entries — the edges the RUM exchange
// would carry if reader and owner end up in different partitions).
func analyze(t *oim.Tensor) *analysis {
	numOps := t.TotalOps()
	// LI coordinates are dense, so the slot → producing op and slot →
	// register lookups of the cone walks are slot-indexed slices (-1 = none).
	producer := make([]int32, t.NumSlots)
	regOf := make([]int32, t.NumSlots)
	for s := range producer {
		producer[s], regOf[s] = -1, -1
	}
	opArgs := make([][]int32, 0, numOps)
	t.Ops(func(_ int, _ uint16, out int32, args []int32) {
		producer[out] = int32(len(opArgs))
		opArgs = append(opArgs, args)
	})
	for ri, r := range t.RegSlots {
		regOf[r.Q] = int32(ri)
	}

	a := &analysis{
		numOps:  numOps,
		cones:   make([]bitset, len(t.RegSlots)),
		coneOps: make([]int, len(t.RegSlots)),
		regSrc:  make([][]int, len(t.RegSlots)),
	}
	seen := make([]int, t.NumSlots) // stamp per slot: last register to visit it
	for i := range seen {
		seen[i] = -1
	}
	var stack []int32
	for ri, r := range t.RegSlots {
		cone := newBitset(numOps)
		var src []int
		push := func(s int32) {
			if seen[s] != ri {
				seen[s] = ri
				stack = append(stack, s)
			}
		}
		push(r.Next)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if si := regOf[s]; si >= 0 {
				src = append(src, int(si))
				continue
			}
			id := producer[s]
			if id < 0 {
				continue // input or constant
			}
			cone.set(int(id))
			for _, arg := range opArgs[id] {
				push(arg)
			}
		}
		sort.Ints(src)
		a.cones[ri] = cone
		a.coneOps[ri] = cone.popcount()
		a.regSrc[ri] = src
	}
	return a
}
