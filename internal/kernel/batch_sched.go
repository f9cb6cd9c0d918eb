package kernel

import (
	"math/bits"

	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// The batch fast path precompiles the TI tape into a batch-specialised
// schedule. Three properties separate it from the scalar tape loop:
//
//   - Operand slots are resolved to pre-bound lane-vector slices once at
//     instantiation, so the per-op loops touch two or three contiguous
//     slices directly instead of indirecting through li[slot] per op.
//   - The `& mask` is elided whenever the schedule compiler can prove the
//     result already fits the output width (masks are contiguous low-bit
//     masks, so a bit-length argument suffices). Every fused operation
//     exists in a masked and an unmasked variant; the compiler picks.
//   - Each loop body re-slices its operands to len(out), which lets the Go
//     compiler eliminate the bounds checks inside the lane loop.
//
// The register commit is folded into a single pass when no register's Next
// coordinate aliases another register's Q coordinate (the only ordering
// hazard the staged two-pass commit exists for).
//
// A schedule compiled with packing additionally stores every provably-1-bit
// slot one lane per bit and rewrites the instructions over them to
// word-wide bodies and unpack/pack crossings; see batch_packed.go.

// batchCode selects one fused loop body. Codes come in masked (…M) and
// unmasked pairs where masking is ever needed; comparison and reduction
// results are single bits and never need the mask.
type batchCode uint8

const (
	bcGeneric batchCode = iota // wire.Eval3 fallback (Ident and future ops)
	bcAdd
	bcAddM
	bcSub
	bcSubM
	bcMul
	bcMulM
	bcDiv
	bcDivM
	bcRem
	bcRemM
	bcAnd
	bcAndM
	bcOr
	bcOrM
	bcXor
	bcXorM
	bcEq
	bcNeq
	bcLt
	bcLeq
	bcGt
	bcGeq
	bcShl
	bcShlM
	bcShr
	bcShrM
	bcCat
	bcCatM
	bcBits
	bcBitsM
	bcBitsC // constant hi/lo folded to one shift + mask at schedule build
	bcNot
	bcNotM
	bcNeg
	bcNegM
	bcOrR
	bcXorR
	bcMux
	bcMuxM
	bcMuxChain
	bcMuxChainM
)

// opBodies names each operation's loop bodies: the wide body to run when
// [fitsMask] proves the result needs no `& mask`, the one that masks (the
// same body where the result is a single bit), and the word-wide body of the
// packed layout (see batch_packed.go; zero where there is none, so the
// operation always crosses). Ident has no wide body of its own and runs
// bcGeneric.
var opBodies = [wire.NumOps]struct{ plain, masked, word batchCode }{
	wire.Add:      {bcAdd, bcAddM, 0},
	wire.Sub:      {bcSub, bcSubM, 0},
	wire.Mul:      {bcMul, bcMulM, 0},
	wire.Div:      {bcDiv, bcDivM, 0},
	wire.Rem:      {bcRem, bcRemM, 0},
	wire.And:      {bcAnd, bcAndM, bpAnd},
	wire.Or:       {bcOr, bcOrM, bpOr},
	wire.Xor:      {bcXor, bcXorM, bpXor},
	wire.Eq:       {bcEq, bcEq, bpEqW},
	wire.Neq:      {bcNeq, bcNeq, bpNeqW},
	wire.Lt:       {bcLt, bcLt, bpLtW},
	wire.Leq:      {bcLeq, bcLeq, bpLeqW},
	wire.Gt:       {bcGt, bcGt, bpGtW},
	wire.Geq:      {bcGeq, bcGeq, bpGeqW},
	wire.Shl:      {bcShl, bcShlM, 0},
	wire.Shr:      {bcShr, bcShrM, 0},
	wire.Cat:      {bcCat, bcCatM, 0},
	wire.Bits:     {bcBits, bcBitsM, 0},
	wire.Not:      {bcNot, bcNotM, bpNot},
	wire.Neg:      {bcNeg, bcNegM, 0},
	wire.AndR:     {bcEq, bcEq, bpEqW},
	wire.OrR:      {bcOrR, bcOrR, bpCopy},
	wire.XorR:     {bcXorR, bcXorR, bpCopy},
	wire.Mux:      {bcMux, bcMuxM, bpMux},
	wire.MuxChain: {bcMuxChain, bcMuxChainM, bpMuxChain},
	wire.Ident:    {bcGeneric, bcGeneric, bpCopy},
}

// batchInst is one schedule entry in slot space: the shareable, per-program
// half of a batch operation. Binding to a concrete batch's lane vectors
// happens per batch (and per worker shard) in bindOps.
type batchInst struct {
	code batchCode
	op   wire.Op // consulted by bcGeneric
	out  int32
	a    [3]int32
	n    uint8
	sh   uint8   // folded constant shift amount (bcBitsC, whose n is 1)
	ext  []int32 // spilled mux-chain operands
	mask uint64
}

// args lists the entry's operand slots, inline or spilled.
func (in *batchInst) args() []int32 {
	if in.ext != nil {
		return in.ext
	}
	return in.a[:in.n]
}

// commitInst is one register's end-of-cycle update in slot space. masked is
// false when the settled Next value provably fits the register width. qp and
// np flag bit-packed Q/Next slots (packing schedules only).
type commitInst struct {
	q, next int32
	mask    uint64
	masked  bool
	qp, np  bool
}

// batchSchedule is the complete batch-specialised program: the fused
// operation list plus the commit plan. It is immutable and shared by every
// batch (and every worker shard) of one Program.
type batchSchedule struct {
	insts []batchInst
	// commits is the per-register update list; fusedCommit reports whether
	// it may run as a single direct pass (no Next/Q aliasing between
	// distinct registers).
	commits     []commitInst
	fusedCommit bool
	// packing marks a bit-packed schedule: packed[slot] is the width
	// analysis verdict (see OneBitSlots) after demotion and packedSlots
	// lists the packed coordinates, which batches use to size the packed
	// store. packing is false when the design has no provably-1-bit slot at
	// all, even if requested — the schedule is then identical to the wide
	// one.
	packing     bool
	packed      []bool
	packedSlots []int32
	// wideSlots lists the coordinates that own a wide lane vector: all of
	// them in a wide schedule, see wideSlotsOf in a packing one.
	wideSlots []int32
}

// fitsMask reports whether op's result is guaranteed to fit outMask given
// the operand masks. All masks are contiguous low-bit masks, so reasoning
// with bit lengths is exact and overflow-free.
func fitsMask(op wire.Op, argMasks []uint64, outMask uint64) bool {
	outLen := bits.Len64(outMask)
	alen := func(i int) int {
		if i < len(argMasks) {
			return bits.Len64(argMasks[i])
		}
		return 64
	}
	switch op {
	case wire.And:
		return min(alen(0), alen(1)) <= outLen
	case wire.Or, wire.Xor:
		return max(alen(0), alen(1)) <= outLen
	case wire.Mux:
		return max(alen(1), alen(2)) <= outLen
	case wire.MuxChain: // one of the value operands, or the trailing default
		worst := alen(len(argMasks) - 1)
		for i := 1; i < len(argMasks); i += 2 {
			worst = max(worst, alen(i))
		}
		return worst <= outLen
	case wire.Div, wire.Shr, wire.Bits:
		// The result never exceeds the dividend/shiftee; Bits applies its
		// own sub-mask, so the output mask is redundant when the field fits.
		return alen(0) <= outLen
	case wire.Rem:
		return min(alen(0), alen(1)) <= outLen // x%y <= min(x, y-1)
	case wire.Add:
		return max(alen(0), alen(1))+1 <= outLen
	case wire.Mul:
		return alen(0)+alen(1) <= outLen
	case wire.Shl:
		// The shift amount is at most the second operand's mask value.
		if argMasks[1] > 63 {
			return false
		}
		return alen(0)+int(argMasks[1]) <= outLen
	default:
		// Sub and Neg wrap below zero, Not flips all 64 bits, and Cat joins
		// two fields whose combined length is the declared output width:
		// safe unmasked only at full 64-bit width. Single-bit results
		// (comparisons, reductions) have one body either way.
		return outMask == ^uint64(0)
	}
}

// buildBatchSchedule compiles the design's TI tape into the batch-specialised
// schedule: fused opcodes with the mask decision baked in, plus the folded
// commit plan. With packing, the width-analysis pass classifies every slot,
// a profitability pass demotes slots whose packing would only force
// crossings around wide bodies, and instructions over the surviving 1-bit
// slots are rewritten to the packed loop bodies (see batch_packed.go).
func buildBatchSchedule(t *oim.Tensor, packing bool) *batchSchedule {
	tape, _ := buildTape(t)
	s := &batchSchedule{}

	// produced marks slots written by tape operations: exactly the slots
	// whose values are guaranteed masked to their declared width.
	produced := make([]bool, t.NumSlots)
	for k := range tape {
		produced[tape[k].out] = true
	}

	// constVal maps slots whose value can never change over a batch's
	// lifetime — preloaded by Reset and written by no operation, register
	// commit, or poke: every slot a SignalMap resolves (inputs, outputs,
	// registers) is excluded, since a testbench port on any of them pokes
	// the slot per lane. Operand values drawn from here may be folded into
	// the schedule.
	constVal := make(map[int32]uint64, len(t.ConstSlots))
	for _, c := range t.ConstSlots {
		constVal[c.Slot] = c.Value // Reset order: the last preload wins
	}
	for slot, p := range produced {
		if p {
			delete(constVal, int32(slot))
		}
	}
	for _, slot := range t.InputSlots {
		delete(constVal, slot)
	}
	for _, slot := range t.OutputSlots {
		delete(constVal, slot)
	}
	for _, r := range t.RegSlots {
		delete(constVal, r.Q)
		delete(constVal, r.Next)
	}

	// Wide compilation first: the packing passes below cost and rewrite
	// these entries over their live operands (the folded field extract
	// keeps one of three), so the wide schedule is the common intermediate
	// form.
	wide := make([]batchInst, 0, len(tape))
	var argMasks []uint64
	for k := range tape {
		e := &tape[k]
		args := e.ext
		if args == nil {
			args = e.a[:e.n]
		}
		argMasks = argMasks[:0]
		for _, a := range args {
			argMasks = append(argMasks, t.Masks[a])
		}
		in := batchInst{
			code: opBodies[e.op].masked,
			op:   e.op,
			out:  e.out,
			a:    e.a,
			n:    e.n,
			ext:  e.ext,
			mask: e.mask,
		}
		if fitsMask(e.op, argMasks, e.mask) {
			in.code = opBodies[e.op].plain
		}
		// Bits with constant hi/lo — the shape every FIRRTL field extract
		// lowers to — folds to a single shift with the field mask merged
		// into the output mask, leaving the shiftee the only operand.
		if e.op == wire.Bits {
			hi, okH := constVal[e.a[1]]
			lo, okL := constVal[e.a[2]]
			if okH && okL && lo < 64 && hi >= lo {
				in.code = bcBitsC
				in.n = 1
				in.sh = uint8(lo)
				in.mask = wire.Mask(int(hi-lo)+1) & e.mask
			}
		}
		wide = append(wide, in)
	}

	if packing {
		packed := OneBitSlots(t)
		demotePacking(wide, t.RegSlots, packed)
		for slot, p := range packed {
			if p {
				s.packedSlots = append(s.packedSlots, int32(slot))
			}
		}
		if len(s.packedSlots) > 0 {
			s.packing, s.packed = true, packed
		} else {
			s.packedSlots = nil
		}
	}
	if s.packing {
		// wideCur tracks, per packed slot, whether the wide lane view
		// mirrors the packed words at the current point in the schedule
		// (see emitWide). At the start of every settle only never-written
		// constants qualify: Reset fills both views and nothing overwrites
		// them, while inputs, outputs, register Qs and op outputs take
		// packed-only writes between settles.
		wideCur := make([]bool, t.NumSlots)
		for slot := range constVal {
			wideCur[slot] = true
		}
		s.insts = make([]batchInst, 0, len(wide))
		for _, in := range wide {
			s.insts = emitPacked(s.insts, in, s.packed, wideCur)
		}
		s.wideSlots = wideSlotsOf(s.insts, s.packed)
	} else {
		s.insts = wide
		s.wideSlots = make([]int32, t.NumSlots)
		for slot := range s.wideSlots {
			s.wideSlots[slot] = int32(slot)
		}
	}

	// Commit plan: a register's `& Mask` is redundant when Next is a tape
	// product already masked to a width the register covers. The whole
	// commit folds to one pass unless some register's Next aliases another
	// register's Q (the shift-register hazard the staging buffer exists
	// for).
	isQ := make(map[int32]bool, len(t.RegSlots))
	for _, r := range t.RegSlots {
		isQ[r.Q] = true
	}
	s.fusedCommit = true
	for _, r := range t.RegSlots {
		if isQ[r.Next] && r.Next != r.Q {
			s.fusedCommit = false
		}
		s.commits = append(s.commits, commitInst{
			q:      r.Q,
			next:   r.Next,
			mask:   r.Mask,
			masked: !produced[r.Next] || t.Masks[r.Next]&^r.Mask != 0,
			qp:     s.packing && s.packed[r.Q],
			np:     s.packing && s.packed[r.Next],
		})
	}
	return s
}

// boundOp is one schedule entry bound to a concrete batch's lane vectors
// (or to one worker's lane sub-range): the hot-loop representation. out, x,
// y, z alias the batch's backing stores — lane vectors or packed word
// vectors, as the code's packedSides says — with lanes recording the
// sub-range width, since len(out) is a word count for packed outputs.
type boundOp struct {
	code  batchCode
	op    wire.Op
	n     uint8
	sh    uint8
	lanes int
	mask  uint64
	out   []uint64
	x     []uint64
	y     []uint64
	z     []uint64
	ext   [][]uint64
}

// boundCommit is one register update bound to lane vectors. dstP/srcP flag
// bit-packed sides: packed→packed commits copy words, mixed commits pack or
// unpack per lane.
type boundCommit struct {
	dst, src   []uint64
	stage      []uint64 // wide staged buffer sub-range (two-pass commit only)
	pkStage    []uint64 // packed staged words (two-pass, both sides packed)
	mask       uint64
	masked     bool
	dstP, srcP bool
}

// lane binds slot's [lo,hi) lane sub-range. The three-index form pins cap
// so an append can never clobber a neighbouring slot's lanes.
func laneView(li [][]uint64, slot int32, lo, hi int) []uint64 {
	return li[slot][lo:hi:hi]
}

// bindOps resolves the schedule's slot coordinates against one batch's lane
// vectors (and packed word vectors), restricted to the [lo,hi) lane
// sub-range. Each side binds the store the entry's code names (see
// packedSides); a packed slot has a lane vector exactly when some entry
// binds it wide (see wideSlotsOf). The result is private to one executor
// (the sequential batch or one worker shard).
func bindOps(s *batchSchedule, li, pk [][]uint64, lo, hi int) []boundOp {
	view := func(slot int32, packed bool) []uint64 {
		if packed {
			return pkView(pk, slot, lo, hi)
		}
		return laneView(li, slot, lo, hi)
	}
	ops := make([]boundOp, len(s.insts))
	for i := range s.insts {
		in := &s.insts[i]
		b := &ops[i]
		b.code, b.op, b.n, b.sh, b.mask = in.code, in.op, in.n, in.sh, in.mask
		b.lanes = hi - lo
		outP, argsP := in.code.packedSides()
		b.out = view(in.out, outP)
		if in.ext != nil {
			b.ext = make([][]uint64, len(in.ext))
			for j, slot := range in.ext {
				b.ext[j] = view(slot, argsP)
			}
			continue
		}
		switch {
		case in.n >= 3:
			b.z = view(in.a[2], argsP)
			fallthrough
		case in.n == 2:
			b.y = view(in.a[1], argsP)
			fallthrough
		case in.n == 1:
			b.x = view(in.a[0], argsP)
		}
		if in.op == wire.MuxChain {
			// Short chains live inline in a; normalise to ext so the loop
			// bodies (wide and packed alike) have one shape.
			b.ext = make([][]uint64, in.n)
			for j := 0; j < int(in.n); j++ {
				b.ext[j] = view(in.a[j], argsP)
			}
		}
	}
	return ops
}

// bindCommits resolves the commit plan against one batch's lane vectors
// (and packed word vectors) and its staging buffers for the [lo,hi) lane
// sub-range. A staged commit whose register is packed on both sides stages
// packed words directly — the common case in control designs, where shift
// chains force staging; only the rare mixed commit packs or unpacks per lane
// through the wide staging buffer.
func bindCommits(s *batchSchedule, li, pk [][]uint64, next, pkNext []uint64, lanes, words, lo, hi int) []boundCommit {
	view := func(slot int32, packed bool) []uint64 {
		if packed {
			return pkView(pk, slot, lo, hi)
		}
		return laneView(li, slot, lo, hi)
	}
	// The word sub-range matching pkView's lane split: empty tail shards
	// bind zero words so they never touch a neighbour's partial word.
	wlo, whi := (lo+63)>>6, (hi+63)>>6
	cs := make([]boundCommit, len(s.commits))
	for i := range s.commits {
		c := &s.commits[i]
		cs[i] = boundCommit{
			dst:    view(c.q, c.qp),
			src:    view(c.next, c.np),
			mask:   c.mask,
			masked: c.masked,
			dstP:   c.qp,
			srcP:   c.np,
		}
		if s.fusedCommit {
			continue
		}
		if c.qp && c.np {
			cs[i].pkStage = pkNext[i*words+wlo : i*words+whi : i*words+whi]
		} else {
			cs[i].stage = next[i*lanes+lo : i*lanes+hi : i*lanes+hi]
		}
	}
	return cs
}

// outBind is one primary output's sampling copy for a lane sub-range. The
// sampled outs array is always wide; packed output slots unpack on sampling
// so PeekOutput is layout-blind.
type outBind struct {
	dst, src []uint64
	srcP     bool
}

func bindOuts(t *oim.Tensor, s *batchSchedule, li, pk [][]uint64, outs []uint64, lanes, lo, hi int) []outBind {
	bs := make([]outBind, len(t.OutputSlots))
	for i, slot := range t.OutputSlots {
		srcP := s.packing && s.packed[slot]
		var src []uint64
		if srcP {
			src = pkView(pk, slot, lo, hi)
		} else {
			src = laneView(li, slot, lo, hi)
		}
		bs[i] = outBind{
			dst:  outs[i*lanes+lo : i*lanes+hi : i*lanes+hi],
			src:  src,
			srcP: srcP,
		}
	}
	return bs
}

// runOps executes the bound schedule over its lane range. Every loop body
// re-slices its operands to len(out) so the compiler can prove the lane
// index in range once and drop the per-access bounds checks.
func runOps(ops []boundOp) {
	for i := range ops {
		o := &ops[i]
		if o.code >= bpAnd {
			execPackedOp(o)
			continue
		}
		out := o.out
		switch o.code {
		case bcAdd:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = x[l] + y[l]
			}
		case bcAddM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				out[l] = (x[l] + y[l]) & m
			}
		case bcSub:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = x[l] - y[l]
			}
		case bcSubM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				out[l] = (x[l] - y[l]) & m
			}
		case bcMul:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = x[l] * y[l]
			}
		case bcMulM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				out[l] = (x[l] * y[l]) & m
			}
		case bcDiv:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = x[l] / y[l]
				}
			}
		case bcDivM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = (x[l] / y[l]) & m
				}
			}
		case bcRem:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = x[l] % y[l]
				}
			}
		case bcRemM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = (x[l] % y[l]) & m
				}
			}
		case bcAnd:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = x[l] & y[l]
			}
		case bcAndM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				out[l] = x[l] & y[l] & m
			}
		case bcOr:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = x[l] | y[l]
			}
		case bcOrM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				out[l] = (x[l] | y[l]) & m
			}
		case bcXor:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = x[l] ^ y[l]
			}
		case bcXorM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				out[l] = (x[l] ^ y[l]) & m
			}
		case bcEq:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] == y[l])
			}
		case bcNeq:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] != y[l])
			}
		case bcLt:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] < y[l])
			}
		case bcLeq:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] <= y[l])
			}
		case bcGt:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] > y[l])
			}
		case bcGeq:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] >= y[l])
			}
		case bcShl:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = x[l] << uint(y[l])
				}
			}
		case bcShlM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = (x[l] << uint(y[l])) & m
				}
			}
		case bcShr:
			x, y := o.x[:len(out)], o.y[:len(out)]
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = x[l] >> uint(y[l])
				}
			}
		case bcShrM:
			x, y, m := o.x[:len(out)], o.y[:len(out)], o.mask
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = (x[l] >> uint(y[l])) & m
				}
			}
		case bcCat:
			x, y, z := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)]
			for l := range out {
				if z[l] >= 64 {
					out[l] = y[l]
				} else {
					out[l] = x[l]<<uint(z[l]) | y[l]
				}
			}
		case bcCatM:
			x, y, z, m := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)], o.mask
			for l := range out {
				if z[l] >= 64 {
					out[l] = y[l] & m
				} else {
					out[l] = (x[l]<<uint(z[l]) | y[l]) & m
				}
			}
		case bcBits:
			x, y, z := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)]
			for l := range out {
				hi, lo := y[l], z[l]
				if lo >= 64 || hi < lo {
					out[l] = 0
				} else {
					out[l] = (x[l] >> uint(lo)) & wire.Mask(int(hi-lo)+1)
				}
			}
		case bcBitsM:
			x, y, z, m := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)], o.mask
			for l := range out {
				hi, lo := y[l], z[l]
				if lo >= 64 || hi < lo {
					out[l] = 0
				} else {
					out[l] = (x[l] >> uint(lo)) & wire.Mask(int(hi-lo)+1) & m
				}
			}
		case bcBitsC:
			x, m := o.x[:len(out)], o.mask
			sh := uint(o.sh)
			for l := range out {
				out[l] = (x[l] >> sh) & m
			}
		case bcNot:
			x := o.x[:len(out)]
			for l := range out {
				out[l] = ^x[l]
			}
		case bcNotM:
			x, m := o.x[:len(out)], o.mask
			for l := range out {
				out[l] = ^x[l] & m
			}
		case bcNeg:
			x := o.x[:len(out)]
			for l := range out {
				out[l] = -x[l]
			}
		case bcNegM:
			x, m := o.x[:len(out)], o.mask
			for l := range out {
				out[l] = (-x[l]) & m
			}
		case bcOrR:
			x := o.x[:len(out)]
			for l := range out {
				out[l] = b2u(x[l] != 0)
			}
		case bcXorR:
			x := o.x[:len(out)]
			for l := range out {
				out[l] = uint64(bits.OnesCount64(x[l]) & 1)
			}
		case bcMux:
			// Branchless select: data-dependent branches mispredict on
			// uncorrelated lane data, so build an all-ones/all-zeros mask
			// from the condition instead.
			c, x, y := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)]
			for l := range out {
				sel := -b2u(c[l] != 0)
				out[l] = y[l] ^ sel&(x[l]^y[l])
			}
		case bcMuxM:
			c, x, y, m := o.x[:len(out)], o.y[:len(out)], o.z[:len(out)], o.mask
			for l := range out {
				sel := -b2u(c[l] != 0)
				out[l] = (y[l] ^ sel&(x[l]^y[l])) & m
			}
		case bcMuxChain:
			for l := range out {
				out[l] = muxChainBound(o.ext, l)
			}
		case bcMuxChainM:
			m := o.mask
			for l := range out {
				out[l] = muxChainBound(o.ext, l) & m
			}
		default: // bcGeneric: by value; an absent operand reads as operand 0
			x, y, z := o.x[:len(out)], o.x[:len(out)], o.x[:len(out)]
			if o.n > 1 {
				y = o.y[:len(out)]
			}
			if o.n > 2 {
				z = o.z[:len(out)]
			}
			for l := range out {
				out[l] = wire.Eval3(o.op, x[l], y[l], z[l], o.mask)
			}
		}
	}
}

// muxChainBound walks a priority-mux chain's bound lane vectors for one
// lane: (sel0, val0, sel1, val1, …, default).
func muxChainBound(ext [][]uint64, lane int) uint64 {
	n := len(ext)
	for i := 0; i+1 < n; i += 2 {
		if ext[i][lane] != 0 {
			return ext[i+1][lane]
		}
	}
	return ext[n-1][lane]
}

// runCommits performs the end-of-cycle register update for one lane range.
// With a fused plan each register folds to one direct pass; otherwise the
// classic two-pass staged commit runs over the same bound slices.
func runCommits(cs []boundCommit, fused bool) {
	if fused {
		for i := range cs {
			c := &cs[i]
			switch {
			case c.dstP && c.srcP:
				copy(c.dst, c.src) // both 1-bit: a word copy needs no mask
			case c.dstP:
				packLanes(c.dst, c.src) // register mask is 1; &1 applies it
			case c.srcP:
				unpackLanes(c.dst, c.src) // a bit always fits the wide mask
			case c.masked:
				dst, src, m := c.dst, c.src[:len(c.dst)], c.mask
				for l := range dst {
					dst[l] = src[l] & m
				}
			default:
				copy(c.dst, c.src)
			}
		}
		return
	}
	// Staged two-pass commit. Registers packed on both sides stage packed
	// words — no per-lane work at all; mixed registers stage wide, with the
	// packed side packed or unpacked per lane on the way.
	for i := range cs {
		c := &cs[i]
		if c.pkStage != nil {
			copy(c.pkStage, c.src)
			continue
		}
		stage := c.stage
		switch {
		case c.srcP:
			unpackLanes(stage, c.src)
		case c.masked:
			src, m := c.src[:len(stage)], c.mask
			for l := range stage {
				stage[l] = src[l] & m
			}
		default:
			copy(stage, c.src)
		}
	}
	for i := range cs {
		c := &cs[i]
		switch {
		case c.pkStage != nil:
			copy(c.dst, c.pkStage)
		case c.dstP:
			packLanes(c.dst, c.stage)
		default:
			copy(c.dst, c.stage)
		}
	}
}

// runOuts samples the primary outputs for one lane range.
func runOuts(bs []outBind) {
	for i := range bs {
		if bs[i].srcP {
			unpackLanes(bs[i].dst, bs[i].src)
		} else {
			copy(bs[i].dst, bs[i].src)
		}
	}
}
