package kernel

import (
	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// The bit-packed half of the batch schedule. Slots the width analysis
// proves 1-bit (see OneBitSlots) are stored one lane per bit — lane i of a
// lane block is bit i of the slot's packed row, blockWords words — and the
// schedule compiler rewrites every instruction touching them, one of two
// ways:
//
//   - An operation whose output and operands are all packed runs one
//     word-wide op per 64 lanes, a whole row per instruction (bitwise logic,
//     1-bit comparisons, branchless mux and priority chains on whole words).
//   - Every other mix crosses the layout boundary through one mechanism
//     (emitWide): bpUnpack materialises the wide lane view of each packed
//     operand whose view is stale, the ordinary wide fused body runs
//     unchanged, and bpPack re-packs the result when the output slot is
//     packed. The schedule compiler tracks wide-view currency per slot, so a
//     packed value feeding many wide consumers unpacks once per producer
//     write, not once per use — packing is never a correctness decision and
//     mixed ops never pay a per-lane gather.
//
// A packed slot lives in the packed store only; it owns a wide row exactly
// when some instruction reads or writes its wide view (see assignRows).
//
// Which provably-1-bit slots actually live packed is a profitability
// decision layered on the width analysis: demotePacking drops slots whose
// packed residency would only surround wide bodies with crossings.
//
// Bits of a packed row above its block's lane count are garbage (word-wide
// NOT sets them, for example, and a crossing writes only the words its lanes
// reach). That is safe by construction: every consumer of a packed row either
// extracts single lane bits or writes whole rows, and a row belongs to one
// block, so no two workers share a word however the lanes split.

// blockWords is the width of a packed row in words, and 64 times it the
// most lanes one lane block holds: a fixed size, so the word-wide bodies
// index arrays and need neither an inner loop nor a bounds check per word.
const blockWords = 4

// The word-wide bodies below are written out for four words; any other
// blockWords is an index out of range here, at compile time.
var _ = [1]struct{}{}[blockWords-4]

// Packed opcodes continue the batchCode space: the word-wide bodies from
// bpAnd up to bpUnpack, then the two crossings.
const (
	// All-packed word-wide bodies.
	bpAnd batchCode = 64 + iota
	bpOr
	bpXor
	bpNot
	bpEqW
	bpNeqW
	bpLtW
	bpLeqW
	bpGtW
	bpGeqW
	bpCopy // OrR/XorR/Ident of a packed 1-bit operand is the identity
	bpMux
	bpMuxChain
	// The layout crossing: materialise a packed slot's wide lane view /
	// re-pack a wide result into its packed words.
	bpUnpack
	bpPack
)

// demotePacking refines the width-analysis verdict with a profitability
// pass over the wide schedule. Packing a slot pays when it enables
// word-wide bodies (64 lanes per op) or word-copy register commits; it
// costs when it strands the slot in a mixed instruction that crosses the
// layout boundary around an unchanged wide body. Slots whose crossing cost
// outweighs their word-wide wins are demoted to the wide layout; each
// demotion can change neighbouring instructions' shapes, so the pass
// iterates to a fixed point (termination is guaranteed because slots are
// only ever removed). On control-dominated designs nearly every 1-bit slot
// survives; on datapath designs a 1-bit island that only sits between a
// wide comparison and a wide mux scores nothing but debits and retreats to
// the wide schedule, while a slot with a word-wide consumer pays its one
// crossing and stays.
func demotePacking(insts []batchInst, ext []int32, regs []dfg.RegSlot, packed []bool) {
	for {
		gain := make([]int, len(packed))
		for i := range insts {
			packGain(gain, &insts[i], ext, packed)
		}
		// A register packed on both sides commits by word copy (or stages
		// packed words): a 64x win for both coordinates.
		for _, r := range regs {
			if packed[r.Q] && packed[r.Next] {
				gain[r.Q]++
				gain[r.Next]++
			}
		}
		changed := false
		for slot, p := range packed {
			if p && gain[slot] < 0 {
				packed[slot] = false
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// The three loops a schedule's segments run through, by opcode range.
const (
	segWide     = iota // runOps: wide bodies
	segWordWide        // runPackedOps: word-wide bodies
	segCrossing        // runCrossings: bpUnpack, bpPack
)

func (c batchCode) segment() int {
	switch {
	case c < bpAnd:
		return segWide
	case c < bpUnpack:
		return segWordWide
	default:
		return segCrossing
	}
}

// packedSides reports which sides of an instruction index the packed store:
// a word-wide body does everywhere, a wide body nowhere, and the two
// crossings on one side each.
func (c batchCode) packedSides() (out, args bool) {
	wordWide := c.segment() == segWordWide
	return wordWide || c == bpPack, wordWide || c == bpUnpack
}

// wordWide names the word-wide body of one wide-schedule entry, which
// applies when its output and every operand are packed.
func wordWide(in *batchInst, ext []int32, packed []bool) (batchCode, bool) {
	if !packed[in.out] {
		return 0, false
	}
	for _, a := range in.args(ext) {
		if !packed[a] {
			return 0, false
		}
	}
	code := opBodies[in.op].word
	return code, code != 0
}

// packGain scores one wide-schedule entry's contribution to each packed
// slot's profitability, mirroring emitPacked's shape classification: a
// word-wide body credits every slot it touches, and the unpack+wide+pack
// path debits the slots whose packing forces the crossing.
func packGain(gain []int, in *batchInst, ext []int32, packed []bool) {
	d := -1
	if _, ok := wordWide(in, ext, packed); ok {
		d = 1 // 64 lanes per op
	}
	if packed[in.out] {
		gain[in.out] += d
	}
	for _, a := range in.args(ext) {
		if packed[a] {
			gain[a] += d
		}
	}
}

// emitPacked appends the packed-layout compilation of one schedule entry,
// given the slot classification: its word-wide body when the entry is packed
// throughout, else the wide body with whatever crossings its packed slots
// need — none for an entry with no packed involvement (see emitWide).
// wideCur tracks, per packed slot, whether its wide lane view currently
// mirrors the packed words at this point in the schedule.
func emitPacked(insts []batchInst, in batchInst, ext []int32, packed, wideCur []bool) []batchInst {
	if code, ok := wordWide(&in, ext, packed); ok {
		in.code = code
		wideCur[in.out] = false // packed bodies write only the packed view
		return append(insts, in)
	}
	return emitWide(insts, in, ext, packed, wideCur)
}

// emitWide is the one way across the layout boundary. It compiles a mixed
// packed/wide instruction to: a bpUnpack per packed operand whose wide lane
// view is stale, the unmodified fused wide body over lane vectors, and a
// bpPack of the result when the output slot is packed. wideCur deduplicates
// the unpacks — once materialised, a slot's wide view stays current until
// its next packed write, so fan-out to many wide consumers costs one unpack
// total.
func emitWide(insts []batchInst, in batchInst, ext []int32, packed, wideCur []bool) []batchInst {
	for _, a := range in.args(ext) {
		if packed[a] && !wideCur[a] {
			insts = append(insts, batchInst{code: bpUnpack, op: wire.Ident, out: a, a: [3]int32{a}, n: 1})
			wideCur[a] = true
		}
	}
	insts = append(insts, in) // the wide body, packing-blind
	if packed[in.out] {
		insts = append(insts, batchInst{code: bpPack, op: wire.Ident, out: in.out, a: [3]int32{in.out}, n: 1})
		wideCur[in.out] = true // the wide view just produced the packed words
	}
	return insts
}

// pkGet extracts one lane's bit from a packed row.
func pkGet(w *[blockWords]uint64, lane int) uint64 {
	return w[lane>>6] >> (uint(lane) & 63) & 1
}

// pkSet writes one lane's bit (the packed analogue of a masked poke).
func pkSet(w *[blockWords]uint64, lane int, v uint64) {
	bit := uint64(1) << (uint(lane) & 63)
	if v&1 != 0 {
		w[lane>>6] |= bit
	} else {
		w[lane>>6] &^= bit
	}
}

// packLanes packs the low bit of each wide lane value into dst words: the
// one loop every wide→packed crossing shares (bpPack and mixed register
// commits). Tail bits above len(src) keep whatever acc left, and the words
// past them what they held — garbage by contract.
func packLanes(dst, src []uint64) {
	var acc uint64
	for l := 0; l < len(src); l++ {
		acc |= (src[l] & 1) << (uint(l) & 63)
		if l&63 == 63 {
			dst[l>>6] = acc
			acc = 0
		}
	}
	if n := len(src); n&63 != 0 {
		dst[(n-1)>>6] = acc
	}
}

// unpackLanes scatters packed bits to one wide value per lane, consuming
// each source word bit-serially so the word load happens once per 64 lanes.
func unpackLanes(dst, src []uint64) {
	for base := 0; base < len(dst); base += 64 {
		w := src[base>>6]
		end := min(base+64, len(dst))
		for l := base; l < end; l++ {
			dst[l] = w & 1
			w >>= 1
		}
	}
}

// runPackedOps executes one word-wide segment of the schedule over one lane
// block's packed store: every instruction reads and writes whole rows, 64
// lanes per word.
func runPackedOps(insts []batchInst, ext []int32, pk [][blockWords]uint64) {
	for i := range insts {
		o := &insts[i]
		switch o.code {
		case bpAnd:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
		case bpOr:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
		case bpXor, bpNeqW:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
		case bpNot:
			out, x := &pk[o.out], &pk[o.a[0]]
			out[0], out[1], out[2], out[3] = ^x[0], ^x[1], ^x[2], ^x[3]
		case bpEqW:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = ^(x[0] ^ y[0]), ^(x[1] ^ y[1]), ^(x[2] ^ y[2]), ^(x[3] ^ y[3])
		case bpLtW:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = ^x[0]&y[0], ^x[1]&y[1], ^x[2]&y[2], ^x[3]&y[3]
		case bpLeqW:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = ^x[0]|y[0], ^x[1]|y[1], ^x[2]|y[2], ^x[3]|y[3]
		case bpGtW:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = x[0]&^y[0], x[1]&^y[1], x[2]&^y[2], x[3]&^y[3]
		case bpGeqW:
			out, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]]
			out[0], out[1], out[2], out[3] = x[0]|^y[0], x[1]|^y[1], x[2]|^y[2], x[3]|^y[3]
		case bpCopy:
			pk[o.out] = pk[o.a[0]]
		case bpMux:
			out, s, x, y := &pk[o.out], &pk[o.a[0]], &pk[o.a[1]], &pk[o.a[2]]
			out[0] = y[0] ^ s[0]&(x[0]^y[0])
			out[1] = y[1] ^ s[1]&(x[1]^y[1])
			out[2] = y[2] ^ s[2]&(x[2]^y[2])
			out[3] = y[3] ^ s[3]&(x[3]^y[3])
		case bpMuxChain:
			chain := o.args(ext)
			r := pk[chain[len(chain)-1]]
			// Walk pairs in reverse so the earliest matching select wins.
			for i := len(chain) - 3; i >= 0; i -= 2 {
				s, v := &pk[chain[i]], &pk[chain[i+1]]
				r[0] ^= s[0] & (v[0] ^ r[0])
				r[1] ^= s[1] & (v[1] ^ r[1])
				r[2] ^= s[2] & (v[2] ^ r[2])
				r[3] ^= s[3] & (v[3] ^ r[3])
			}
			pk[o.out] = r
		}
	}
}
