package kernel

import (
	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// The bit-packed half of the batch schedule. Slots the width analysis
// proves 1-bit (see OneBitSlots) are stored one lane per bit — lane i is
// bit i of a []uint64 word vector — and the schedule compiler rewrites
// every instruction touching them, one of two ways:
//
//   - An operation whose output and operands are all packed runs one
//     word-wide op per 64 lanes (bitwise logic, 1-bit comparisons, branchless
//     mux and priority chains on whole words).
//   - Every other mix crosses the layout boundary through one mechanism
//     (emitWide): bpUnpack materialises the wide lane view of each packed
//     operand whose view is stale, the ordinary wide fused body runs
//     unchanged, and bpPack re-packs the result when the output slot is
//     packed. The schedule compiler tracks wide-view currency per slot, so a
//     packed value feeding many wide consumers unpacks once per producer
//     write, not once per use — packing is never a correctness decision and
//     mixed ops never pay a per-lane gather.
//
// A packed slot lives in the packed store only; it owns a wide lane vector
// exactly when some instruction binds its wide view (see wideSlotsOf).
//
// Which provably-1-bit slots actually live packed is a profitability
// decision layered on the width analysis: demotePacking drops slots whose
// packed residency would only surround wide bodies with crossings.
//
// Bits of a partial tail word above the lane count are garbage (word-wide
// NOT sets them, for example). That is safe by construction: every consumer
// of a packed word either extracts single lane bits or writes whole words
// it owns, and packed shards split on 64-lane-aligned boundaries so no two
// workers share a word.

// Packed opcodes continue the batchCode space; bpAnd must stay the first so
// runOps can route `code >= bpAnd` to execPackedOp.
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
func demotePacking(insts []batchInst, regs []dfg.RegSlot, packed []bool) {
	for {
		gain := make([]int, len(packed))
		for i := range insts {
			packGain(gain, &insts[i], packed)
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

// packedSides reports which sides of an instruction bind the packed store:
// a word-wide body binds it everywhere, a wide body nowhere, and the two
// crossings bind one side each.
func (c batchCode) packedSides() (out, args bool) {
	wordWide := c >= bpAnd && c < bpUnpack
	return wordWide || c == bpPack, wordWide || c == bpUnpack
}

// wordWide names the word-wide body of one wide-schedule entry, which
// applies when its output and every operand are packed.
func wordWide(in *batchInst, packed []bool) (batchCode, bool) {
	if !packed[in.out] {
		return 0, false
	}
	for _, a := range in.args() {
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
func packGain(gain []int, in *batchInst, packed []bool) {
	d := -1
	if _, ok := wordWide(in, packed); ok {
		d = 1 // 64 lanes per op
	}
	if packed[in.out] {
		gain[in.out] += d
	}
	for _, a := range in.args() {
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
func emitPacked(insts []batchInst, in batchInst, packed, wideCur []bool) []batchInst {
	if code, ok := wordWide(&in, packed); ok {
		in.code = code
		wideCur[in.out] = false // packed bodies write only the packed view
		return append(insts, in)
	}
	return emitWide(insts, in, packed, wideCur)
}

// emitWide is the one way across the layout boundary. It compiles a mixed
// packed/wide instruction to: a bpUnpack per packed operand whose wide lane
// view is stale, the unmodified fused wide body over lane vectors, and a
// bpPack of the result when the output slot is packed. wideCur deduplicates
// the unpacks — once materialised, a slot's wide view stays current until
// its next packed write, so fan-out to many wide consumers costs one unpack
// total.
func emitWide(insts []batchInst, in batchInst, packed, wideCur []bool) []batchInst {
	for _, a := range in.args() {
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

// wideSlotsOf lists, ascending, the slots that own a wide lane vector under
// the emitted schedule: every wide slot, plus each packed slot some
// instruction binds wide — the bpUnpack/bpPack targets and the constants
// wide bodies read in place. Every other access to a packed slot (pokes,
// peeks, watches, commits, output sampling) goes through the packed store.
func wideSlotsOf(insts []batchInst, packed []bool) []int32 {
	wide := make([]bool, len(packed))
	for slot, p := range packed {
		wide[slot] = !p
	}
	for i := range insts {
		in := &insts[i]
		outP, argsP := in.code.packedSides()
		wide[in.out] = wide[in.out] || !outP
		if !argsP {
			for _, a := range in.args() {
				wide[a] = true
			}
		}
	}
	var slots []int32
	for slot, w := range wide {
		if w {
			slots = append(slots, int32(slot))
		}
	}
	return slots
}

// pkView binds slot's packed words covering the [lo,hi) lane sub-range. lo
// is 64-lane-aligned for every non-empty shard; surplus workers get an
// empty [hi,hi) range and must bind zero words.
func pkView(pk [][]uint64, slot int32, lo, hi int) []uint64 {
	wlo := (lo + 63) >> 6
	whi := (hi + 63) >> 6
	if whi < wlo {
		whi = wlo
	}
	return pk[slot][wlo:whi:whi]
}

// pkGet extracts one lane's bit from a packed word vector.
func pkGet(w []uint64, lane int) uint64 {
	return w[lane>>6] >> (uint(lane) & 63) & 1
}

// pkSet writes one lane's bit (the packed analogue of a masked poke).
func pkSet(w []uint64, lane int, v uint64) {
	bit := uint64(1) << (uint(lane) & 63)
	if v&1 != 0 {
		w[lane>>6] |= bit
	} else {
		w[lane>>6] &^= bit
	}
}

// packLanes packs the low bit of each wide lane value into dst words: the
// one loop every wide→packed crossing shares (bpPack and mixed register
// commits). Tail bits above len(src) keep whatever acc left — garbage by
// contract.
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

// fillPk sets every lane of a packed word vector to v's low bit.
func fillPk(w []uint64, v uint64) {
	x := uint64(0)
	if v&1 != 0 {
		x = ^uint64(0)
	}
	for i := range w {
		w[i] = x
	}
}

// execPackedOp runs one packed loop body. Word-wide cases iterate words
// (64 lanes per step); the two crossings iterate lanes but touch the packed
// side one word per 64 lanes.
func execPackedOp(o *boundOp) {
	out := o.out
	switch o.code {
	case bpAnd:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = x[w] & y[w]
		}
	case bpOr:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = x[w] | y[w]
		}
	case bpXor:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = x[w] ^ y[w]
		}
	case bpNot:
		x := o.x[:len(out)]
		for w := range out {
			out[w] = ^x[w]
		}
	case bpEqW:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = ^(x[w] ^ y[w])
		}
	case bpNeqW:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = x[w] ^ y[w]
		}
	case bpLtW:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = ^x[w] & y[w]
		}
	case bpLeqW:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = ^x[w] | y[w]
		}
	case bpGtW:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = x[w] &^ y[w]
		}
	case bpGeqW:
		x, y := o.x[:len(out)], o.y[:len(out)]
		for w := range out {
			out[w] = x[w] | ^y[w]
		}
	case bpCopy:
		copy(out, o.x)
	case bpMux:
		s, x, y := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)]
		for w := range out {
			out[w] = y[w] ^ s[w]&(x[w]^y[w])
		}
	case bpMuxChain:
		ext := o.ext
		n := len(ext)
		dflt := ext[n-1]
		for w := range out {
			r := dflt[w]
			// Walk pairs in reverse so the earliest matching select wins.
			for i := n - 3; i >= 0; i -= 2 {
				s, v := ext[i][w], ext[i+1][w]
				r = r ^ s&(v^r)
			}
			out[w] = r
		}
	case bpUnpack:
		// out is the slot's wide lane view, x its packed words.
		unpackLanes(out, o.x)
	case bpPack:
		// out is the slot's packed words, x its wide lane view.
		packLanes(out, o.x[:o.lanes])
	}
}
