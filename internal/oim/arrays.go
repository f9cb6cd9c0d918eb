package oim

import (
	"fmt"
	"slices"
)

// Arrays is the concrete coordinate/payload-array lowering of the OIM for
// the [I, S, N, O, R] rank order (Figure 13b). The optimized variant
// (Figure 12b) elides the payload arrays whose content is implied by
// structure; the unoptimized variant (Figure 12a) keeps them, which the
// format-ablation benchmarks exercise.
type Arrays struct {
	Optimized bool

	// IPayload[i] is the operation count of layer i (I-rank payloads).
	IPayload []int32
	// SCoord holds each operation's output slot, layer-major.
	SCoord []int32
	// NCoord holds each operation's type (N coordinate), aligned with SCoord.
	NCoord []uint16
	// RCoord holds operand slots, operation-major in operand order.
	RCoord []int32
	// ROffset[k] is the index into RCoord where operation k's operands
	// start (derived, not part of the stored format: kernels that honour
	// the format walk RCoord sequentially, mirroring the next() traversal
	// of Algorithm 3).
	ROffset []int32

	// Unoptimized-only payload arrays (Figure 12a).
	SPayload []int32 // occupancy of each op's N fiber (always 1)
	NPayload []int32 // operand count per op (arity)
	OPayload []int32 // occupancy of each operand's R fiber (always 1)
	RPayload []uint8 // mask bit per operand (always 1)
}

// Lower produces the [I,S,N,O,R] array lowering.
func (t *Tensor) Lower(optimized bool) *Arrays {
	a := &Arrays{Optimized: optimized}
	total := t.TotalOps()
	a.IPayload = make([]int32, t.NumLayers())
	a.SCoord = make([]int32, 0, total)
	a.NCoord = make([]uint16, 0, total)
	a.RCoord = make([]int32, 0, t.TotalOperands())
	a.ROffset = make([]int32, 0, total+1)
	for i, layer := range t.Layers {
		a.IPayload[i] = int32(len(layer))
		for _, op := range layer {
			a.ROffset = append(a.ROffset, int32(len(a.RCoord)))
			a.SCoord = append(a.SCoord, op.Out)
			a.NCoord = append(a.NCoord, op.Sig)
			a.RCoord = append(a.RCoord, op.Args...)
			if !optimized {
				a.SPayload = append(a.SPayload, 1)
				a.NPayload = append(a.NPayload, int32(len(op.Args)))
				for range op.Args {
					a.OPayload = append(a.OPayload, 1)
					a.RPayload = append(a.RPayload, 1)
				}
			}
		}
	}
	a.ROffset = append(a.ROffset, int32(len(a.RCoord)))
	return a
}

// Swizzled is the [I, N, S, O, R] lowering used from the NU kernel onward
// (Figure 12c): within each layer, operations are grouped by type; the
// uncompressed N rank stores one count per (layer, type).
//
// The S rank is stored run-length. dfg.Levelize numbers each layer's
// operations in exactly this traversal order, so on a tensor from Build the
// S coordinates of a (layer, type) group are consecutive and the group is
// one run: the k-th result of the run is LI[First+k], its mask is
// Masks[First+k], and no layer-output buffer or write-back pass is needed.
// That contiguity is a property of Build's output only. A RepCut
// sub-tensor (layers filtered by cone membership over the same slot space)
// or a tensor read from JSON lowers to several shorter runs per group, and
// consumers must walk Runs, never assume one run per group.
type Swizzled struct {
	NumSigs int
	// NPayload[layer*NumSigs + sig] is the operation count of that group.
	NPayload []int32
	// Runs lists the S coordinates in traversal order (layer, then type,
	// then the layer's own order), run-length encoded. A run never spans
	// two groups.
	Runs []Run
	// RCoord lists operand slots in the same traversal order (each op of a
	// run contributes exactly Arity(Sig) entries).
	RCoord []int32
}

// Run is Count operations of type Sig (an N coordinate) whose S coordinates
// are First, First+1, ..., First+Count-1.
type Run struct {
	Sig   uint16
	First int32
	Count int32
}

// LowerSwizzled produces the [I,N,S,O,R] lowering in one pass per layer.
func (t *Tensor) LowerSwizzled() *Swizzled {
	sw := &Swizzled{NumSigs: len(t.OpTable)}
	sw.NPayload = make([]int32, t.NumLayers()*len(t.OpTable))
	sw.RCoord = make([]int32, 0, t.TotalOperands())
	bySig := func(a, b Op) int { return int(a.Sig) - int(b.Sig) }
	for i, layer := range t.Layers {
		// Build emits layers already grouped by type; only a hand-built
		// tensor needs the (stable) regrouping.
		if !slices.IsSortedFunc(layer, bySig) {
			layer = slices.Clone(layer)
			slices.SortStableFunc(layer, bySig)
		}
		base := i * sw.NumSigs
		for k, op := range layer {
			sw.NPayload[base+int(op.Sig)]++
			sw.RCoord = append(sw.RCoord, op.Args...)
			if k > 0 {
				if last := &sw.Runs[len(sw.Runs)-1]; last.Sig == op.Sig && last.First+last.Count == op.Out {
					last.Count++
					continue
				}
			}
			sw.Runs = append(sw.Runs, Run{Sig: op.Sig, First: op.Out, Count: 1})
		}
	}
	return sw
}

// Validate cross-checks the swizzled lowering against the canonical tensor:
// the runs cover every operation of every layer exactly once, group by
// group in NPayload order, and RCoord carries each operation's operands in
// the same order.
func (sw *Swizzled) Validate(t *Tensor) error {
	if sw.NumSigs != len(t.OpTable) || len(sw.NPayload) != t.NumLayers()*sw.NumSigs {
		return fmt.Errorf("oim: swizzled N rank diverges from canonical tensor")
	}
	producer := make([]*Op, t.NumSlots)
	ru, ri := 0, 0
	for i, layer := range t.Layers {
		for k := range layer {
			producer[layer[k].Out] = &layer[k]
		}
		covered := 0
		for sig := 0; sig < sw.NumSigs; sig++ {
			for left := sw.NPayload[i*sw.NumSigs+sig]; left > 0; ru++ {
				if ru == len(sw.Runs) {
					return fmt.Errorf("oim: layer %d: runs end %d ops short of NPayload", i, left)
				}
				r := sw.Runs[ru]
				if int(r.Sig) != sig || r.Count < 1 || r.Count > left {
					return fmt.Errorf("oim: layer %d: run %d (%+v) does not fit group %d with %d ops left", i, ru, r, sig, left)
				}
				for s := r.First; s < r.First+r.Count; s++ {
					if s < 0 || int(s) >= t.NumSlots || producer[s] == nil || producer[s].Sig != r.Sig {
						return fmt.Errorf("oim: layer %d: run %d covers s=%d, not a type-%d op of the layer", i, ru, s, sig)
					}
					args := producer[s].Args
					if ri+len(args) > len(sw.RCoord) || !slices.Equal(sw.RCoord[ri:ri+len(args)], args) {
						return fmt.Errorf("oim: layer %d: RCoord diverges at s=%d", i, s)
					}
					ri += len(args)
					producer[s] = nil // covered once
				}
				left -= r.Count
				covered += int(r.Count)
			}
		}
		if covered != len(layer) {
			return fmt.Errorf("oim: layer %d: runs cover %d of %d ops", i, covered, len(layer))
		}
	}
	if ru != len(sw.Runs) || ri != len(sw.RCoord) {
		return fmt.Errorf("oim: %d runs and %d operands past the last layer", len(sw.Runs)-ru, len(sw.RCoord)-ri)
	}
	return nil
}

// Validate cross-checks a lowering against the canonical tensor.
func (a *Arrays) Validate(t *Tensor) error {
	if len(a.SCoord) != t.TotalOps() || len(a.RCoord) != t.TotalOperands() {
		return fmt.Errorf("oim: array sizes diverge from canonical tensor")
	}
	k, r := 0, 0
	for i, layer := range t.Layers {
		if int(a.IPayload[i]) != len(layer) {
			return fmt.Errorf("oim: IPayload[%d] = %d, want %d", i, a.IPayload[i], len(layer))
		}
		for _, op := range layer {
			if a.SCoord[k] != op.Out || a.NCoord[k] != op.Sig {
				return fmt.Errorf("oim: op %d coords diverge", k)
			}
			if a.ROffset[k] != int32(r) {
				return fmt.Errorf("oim: ROffset[%d] = %d, want %d", k, a.ROffset[k], r)
			}
			for _, arg := range op.Args {
				if a.RCoord[r] != arg {
					return fmt.Errorf("oim: RCoord[%d] diverges", r)
				}
				r++
			}
			k++
		}
	}
	return nil
}
