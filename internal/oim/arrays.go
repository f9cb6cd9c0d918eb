package oim

// Arrays is the concrete coordinate/payload-array lowering of the OIM for
// the [I, S, N, O, R] rank order (Figure 13b), derived from the tensor for
// the RU and OU kernels. It is Figure 12b: the payload arrays whose content
// is implied by structure are elided, so only the layers' operation counts
// remain as payloads.
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
}

// Lower produces the [I,S,N,O,R] array lowering.
func (t *Tensor) Lower() *Arrays {
	total := t.TotalOps()
	a := &Arrays{
		IPayload: make([]int32, t.NumLayers()),
		SCoord:   make([]int32, 0, total),
		NCoord:   make([]uint16, 0, total),
		RCoord:   t.RCoord,
	}
	t.Ops(func(layer int, sig uint16, out int32, _ []int32) {
		a.IPayload[layer]++
		a.SCoord = append(a.SCoord, out)
		a.NCoord = append(a.NCoord, sig)
	})
	return a
}
