package kernel

import "rteaal/internal/oim"

// Width analysis for the bit-packed batch layout.
//
// Every LI slot carries a contiguous low-bit mask, and every write the
// engines perform is masked to it: tape operations either apply the mask or
// are proven to fit it (see fitsMask), register commits apply the register
// mask, and input/slot pokes mask on entry. The preloaded constants and
// register initial values respect it too: dfg.Graph.Validate and
// oim.Tensor.Validate reject one that does not. A slot's value therefore
// never exceeds its mask.
//
// OneBitSlots is the whole pass: with contiguous masks, "provably 1 bit
// wide" is exactly "mask == 1". The batch schedule compiler consumes the
// classification to store those slots one lane per bit (lane i = bit i of a
// []uint64 word vector), so And/Or/Xor/Not/Mux over 1-bit operands run one
// word-wide op per 64 lanes.

// OneBitSlots classifies every LI slot of t: result[s] is true when slot s
// provably never holds a value above 1, that is when its mask is the single
// low bit.
func OneBitSlots(t *oim.Tensor) []bool {
	one := make([]bool, t.NumSlots)
	for s, m := range t.Masks {
		one[s] = m == 1
	}
	return one
}
