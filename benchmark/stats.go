package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of xs by the
// exclusive method, the one Python's statistics.quantiles(xs, n=4) uses, so
// the spreads printed here are the ones the acceptance driver recomputes.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based; past the ends it extrapolates from
		// the nearest pair, as the Python function does.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3), nil
}

// median returns the middle of xs (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrFrac is the distance between the first and third quartile as a share of
// the median: the run-to-run spread every rate is reported with. One sample
// (or a zero median) has no spread to report and yields 0.
func iqrFrac(xs []float64) float64 {
	q1, _, q3, err := quartiles(xs)
	m := median(xs)
	if err != nil || m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0 < p < 1) of xs by nearest rank.
// It refuses a percentile with fewer than ten samples beyond it: a p99 of
// 500 requests is the mean of five outliers, not a tail.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need 10", p*100, n, max(beyond, 0))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// digest folds simulated values into an FNV-64a hash. Two runs that fold the
// same values in the same order agree exactly, so a digest compares the
// simulated results of two commits without storing a trace.
type digest struct{ h uint64 }

func newDigest() *digest {
	return &digest{h: fnv.New64a().Sum64()}
}

func (d *digest) fold(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= prime
		v >>= 8
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }
