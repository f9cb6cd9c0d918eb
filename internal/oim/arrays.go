package oim

import (
	"fmt"
	"slices"
)

// Arrays is the concrete coordinate/payload-array lowering of the OIM for
// the [I, S, N, O, R] rank order (Figure 13b), derived from the tensor for
// the RU and OU kernels. The optimized variant (Figure 12b) elides the
// payload arrays whose content is implied by structure; the unoptimized
// variant (Figure 12a) keeps them, and only the footprint test measures it.
type Arrays struct {
	// IPayload[i] is the operation count of layer i (I-rank payloads).
	IPayload []int32
	// SCoord holds each operation's output slot, layer-major.
	SCoord []int32
	// NCoord holds each operation's type (N coordinate), aligned with SCoord.
	NCoord []uint16
	// RCoord holds operand slots, operation-major in operand order: the
	// tensor's own RCoord, not a copy. Kernels walk it sequentially,
	// mirroring the next() traversal of Algorithm 3.
	RCoord []int32

	// Unoptimized-only payload arrays (Figure 12a).
	SPayload []int32 // occupancy of each op's N fiber (always 1)
	NPayload []int32 // operand count per op (arity)
	OPayload []int32 // occupancy of each operand's R fiber (always 1)
	RPayload []uint8 // mask bit per operand (always 1)
}

// Lower produces the [I,S,N,O,R] array lowering.
func (t *Tensor) Lower(optimized bool) *Arrays {
	total := t.TotalOps()
	a := &Arrays{
		IPayload: make([]int32, t.NumLayers()),
		SCoord:   make([]int32, 0, total),
		NCoord:   make([]uint16, 0, total),
		RCoord:   t.RCoord,
	}
	t.Ops(func(layer int, sig uint16, out int32, args []int32) {
		a.IPayload[layer]++
		a.SCoord = append(a.SCoord, out)
		a.NCoord = append(a.NCoord, sig)
		if !optimized {
			a.SPayload = append(a.SPayload, 1)
			a.NPayload = append(a.NPayload, int32(len(args)))
			for range args {
				a.OPayload = append(a.OPayload, 1)
				a.RPayload = append(a.RPayload, 1)
			}
		}
	})
	return a
}

// Validate cross-checks a lowering against the tensor.
func (a *Arrays) Validate(t *Tensor) error {
	if len(a.SCoord) != t.TotalOps() || len(a.RCoord) != t.TotalOperands() || len(a.IPayload) != t.NumLayers() {
		return fmt.Errorf("oim: array sizes diverge from the tensor")
	}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	count := make([]int32, len(a.IPayload))
	k, r := 0, 0
	t.Ops(func(layer int, sig uint16, out int32, args []int32) {
		count[layer]++
		if a.SCoord[k] != out || a.NCoord[k] != sig {
			fail("oim: op %d coords diverge", k)
		}
		for _, arg := range args {
			if a.RCoord[r] != arg {
				fail("oim: RCoord[%d] diverges", r)
			}
			r++
		}
		k++
	})
	if !slices.Equal(count, a.IPayload) {
		fail("oim: IPayload diverges from the layers' operation counts")
	}
	return err
}
