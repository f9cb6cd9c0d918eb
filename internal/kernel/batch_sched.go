package kernel

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// The batch fast path precompiles the TI tape into a batch-specialised
// schedule: the program every lane block of every batch of one Program runs.
// Three properties separate it from the scalar tape loop:
//
//   - Operands are row indices into a block's two stores, translated from
//     slots once per Program. Every schedule numbers each store's rows by
//     liveness (assignRows): a value takes a row when it is written and
//     gives it back after its last reader, so a block holds what is live at
//     once, not one row per slot; inputs, constants, register Qs and values
//     read before they are written keep rows of their own, and outputs and
//     Nexts live to the end of the settle. A batch binds nothing; a loop
//     body reaches a wide row as wide[row*n:][:n] and a packed row as
//     pk[row].
//   - The `& mask` is elided whenever the schedule compiler can prove the
//     result already fits the output width (masks are contiguous low-bit
//     masks, so a bit-length argument suffices). Every fused operation
//     exists in a masked and an unmasked variant; the compiler picks.
//   - Every wide row a body touches is sliced to the block's lane count, which
//     lets the Go compiler eliminate the bounds checks inside the lane loop.
//
// The register commit is a list of row moves in parallel-move order (see
// orderCommits): every Q row is read before it is overwritten, so the moves
// run in place, one after another, with no staging buffer.
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

// batchInst is one schedule entry. buildBatchSchedule compiles it in slot
// space and leaves it in row space: out and the operands index the packed
// store on the sides the code's packedSides names, the wide store elsewhere.
// It is 32 bytes, two to a cache line (the guard below keeps it so).
type batchInst struct {
	code batchCode
	op   wire.Op // consulted by bcGeneric, and by args for mux chains
	n    uint8
	sh   uint8 // folded constant shift amount (bcBitsC, whose n is 1)
	out  int32
	a    [3]int32
	ext  int32 // a mux chain's operands: the offset of their length cell in the schedule's ext
	mask uint64
}

// A batchInst is exactly 32 bytes; any other size is an index out of range
// here, at compile time.
var _ = [1]struct{}{}[unsafe.Sizeof(batchInst{})-32]

// args lists the entry's operands: inline, or — for every mux chain, so its
// bodies have one shape — spilled to ext, the schedule's one operand table.
func (in *batchInst) args(ext []int32) []int32 {
	if in.op == wire.MuxChain {
		return ext[in.ext+1:][:ext[in.ext]]
	}
	return in.a[:in.n]
}

// commitInst is one row move of the end-of-cycle register update: row q
// takes row next. masked is false when the settled Next value provably fits
// the register width. qp and np say which store each side indexes: the
// packed one (packing schedules only) or the wide one.
type commitInst struct {
	q, next int32
	mask    uint64
	masked  bool
	qp, np  bool
}

// batchSchedule is the complete batch-specialised program: the fused
// operation list plus the commit plan. It is immutable and shared by every
// batch (and every lane block) of one Program; a batch holds state only.
type batchSchedule struct {
	insts []batchInst
	// ext holds every mux chain's operands, each chain a length cell
	// followed by its operands (see batchInst.args).
	ext []int32
	// segEnds cuts insts into segments, each the longest run of instructions
	// one loop executes (see batchCode.segment). A wide schedule is one
	// segment.
	segEnds []int
	// commits is the register update in parallel-move order, one move per
	// register plus one save per Next/Q cycle (see orderCommits).
	commits []commitInst
	// wideRow[slot] and packedRow[slot] are the slot's rows in a block's two
	// stores, -1 where it has none. A wide schedule has no packed rows
	// (packedRow is nil, also when packing was requested and no
	// provably-1-bit slot survived); a packing schedule gives each packed
	// slot (see OneBitSlots, after demotion) a packed row, and a wide row
	// too when an instruction binds its wide view. Every other slot has a
	// wide row. Rows are recycled by liveness (see assignRows): two slots
	// share a row when one is dead before the other is written.
	wideRow, packedRow []int32
	// wideRows and packedRows size the stores: the rows above plus, last in
	// each, the temporary row orderCommits breaks cycles through.
	wideRows, packedRows int
}

// home names the row a slot's value lives in: its packed row when it has
// one, else its wide row. Pokes, peeks, watches, output sampling and the
// commit go here; only a schedule instruction reaches a packed slot's wide
// row.
func (s *batchSchedule) home(slot int32) (row int32, packed bool) {
	if s.packedRow != nil {
		if r := s.packedRow[slot]; r >= 0 {
			return r, true
		}
	}
	return s.wideRow[slot], false
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
// schedule: fused opcodes with the mask decision baked in, operands as rows,
// plus the ordered commit plan. With packing, the width-analysis pass
// classifies every slot, a profitability pass demotes slots whose packing
// would only force crossings around wide bodies, instructions over the
// surviving 1-bit slots are rewritten to the packed loop bodies (see
// batch_packed.go). Either way the rows of each store are recycled by
// liveness (see assignRows).
func buildBatchSchedule(t *oim.Tensor, packing bool) *batchSchedule {
	s, packed := slotSchedule(t, packing)
	s.assignRows(t, packed)
	s.toRows()
	// Each side of a register move is the slot's home row; the temporary
	// rows come last in their stores.
	for i := range s.commits {
		c := &s.commits[i]
		c.q, c.qp = s.home(c.q)
		c.next, c.np = s.home(c.next)
	}
	s.commits = orderCommits(s.commits, int32(s.wideRows), int32(s.packedRows))
	s.wideRows++
	if packed != nil {
		s.packedRows++
	}
	return s
}

// slotSchedule compiles the schedule in slot space: the instructions, their
// operand table and segments, and the register moves in register order, all
// naming slots. packed is the width-analysis verdict after demotion, nil
// when packing was not requested or left no slot packed; the schedule is
// then the wide one.
func slotSchedule(t *oim.Tensor, packing bool) (s *batchSchedule, packed []bool) {
	tape, _ := buildTape(t)
	s = &batchSchedule{}

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
			mask: e.mask,
		}
		if fitsMask(e.op, argMasks, e.mask) {
			in.code = opBodies[e.op].plain
		}
		if e.op == wire.MuxChain {
			in.a, in.ext = [3]int32{}, int32(len(s.ext))
			s.ext = append(append(s.ext, int32(len(args))), args...)
		}
		// Bits with constant hi/lo — the shape every FIRRTL field extract
		// lowers to — folds to a single shift with the field mask merged
		// into the output mask, leaving the shiftee the only operand.
		if e.op == wire.Bits {
			hi, okH := constVal[e.a[1]]
			lo, okL := constVal[e.a[2]]
			if okH && okL && lo < 64 && hi >= lo {
				in.code = bcBitsC
				in.a, in.n = [3]int32{e.a[0]}, 1
				in.sh = uint8(lo)
				in.mask = wire.Mask(int(hi-lo)+1) & e.mask
			}
		}
		wide = append(wide, in)
	}

	if packing {
		packed = OneBitSlots(t)
		demotePacking(wide, s.ext, t.RegSlots, packed)
		if !slices.Contains(packed, true) {
			packed = nil
		}
	}
	s.insts = wide
	if packed != nil {
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
			s.insts = emitPacked(s.insts, in, s.ext, packed, wideCur)
		}
	}
	for i := 1; i <= len(s.insts); i++ {
		if i == len(s.insts) || s.insts[i].code.segment() != s.insts[i-1].code.segment() {
			s.segEnds = append(s.segEnds, i)
		}
	}

	// A register's `& Mask` is redundant when Next is a tape product
	// already masked to a width the register covers.
	s.commits = make([]commitInst, len(t.RegSlots))
	for i, r := range t.RegSlots {
		s.commits[i] = commitInst{q: r.Q, next: r.Next, mask: r.Mask, masked: !produced[r.Next] || t.Masks[r.Next]&^r.Mask != 0}
	}
	return s, packed
}

// rowAlloc numbers the rows of one store. A value is one slot in the store;
// it lives from the instruction that writes it to the last one that reads
// it.
type rowAlloc struct {
	row     []int32 // per slot: its row, -1 while it has none
	last    []int32 // per slot: its last reader, -1 for none, len(insts) to outlive the settle
	pin     []bool  // per slot: the value keeps its row alone for good
	written []bool  // per slot: an instruction writes the value
	free    []int32 // rows of dead values, the most recently freed last
	rows    int32
}

// take gives a slot a row if it has none, reusing the most recently freed
// row: the one most likely still in cache.
func (a *rowAlloc) take(slot int32) {
	if a.row[slot] >= 0 {
		return
	}
	if k := len(a.free); k > 0 {
		a.row[slot], a.free = a.free[k-1], a.free[:k-1]
	} else {
		a.row[slot] = a.rows
		a.rows++
	}
}

// release frees a slot's row once instruction i, its last reader, has run.
func (a *rowAlloc) release(slot, i int32) {
	if !a.pin[slot] && a.last[slot] <= i {
		a.free = append(a.free, a.row[slot])
		a.last[slot] = math.MaxInt32 // freed: a repeated operand frees once
	}
}

// assignRows numbers a schedule's rows with a linear scan over its
// slot-space instructions, each store on its own: a value takes a row at
// the instruction that writes it and frees it after the last one that reads
// it has run, so an output never aliases its own operands. Every slot has a
// home value, in the packed store if the slot is packed (packed is nil when
// none is); a packed slot has a wide value too exactly when an instruction
// binds its wide view. Some values keep a row of their own for good,
// numbered first: every value the schedule reads before writing (a
// constant's wide view, read in place), every home value it never touches,
// and the home value of every slot the host pokes or Reset loads — inputs,
// constants and register Qs. Primary outputs and register Nexts are read
// after the settle, by output sampling and the commit, so their home values
// live to its end.
func (s *batchSchedule) assignRows(t *oim.Tensor, packed []bool) {
	n := t.NumSlots
	var st [2]rowAlloc // the wide store, the packed store
	for k := range st {
		st[k] = rowAlloc{row: make([]int32, n), last: make([]int32, n), pin: make([]bool, n), written: make([]bool, n)}
		for slot := range n {
			st[k].row[slot], st[k].last[slot] = -1, -1
		}
	}
	side := func(p bool) *rowAlloc {
		if p {
			return &st[1]
		}
		return &st[0]
	}
	for i := range s.insts {
		in := &s.insts[i]
		outP, argsP := in.code.packedSides()
		a := side(argsP)
		for _, slot := range in.args(s.ext) {
			a.last[slot] = int32(i)
			a.pin[slot] = a.pin[slot] || !a.written[slot] // read before it is written
		}
		side(outP).written[in.out] = true
	}
	home := func(slot int32) *rowAlloc { return side(packed != nil && packed[slot]) }
	for slot := range int32(n) {
		if a := home(slot); !a.written[slot] && a.last[slot] < 0 {
			a.pin[slot] = true // untouched: only the host reads it
		}
	}
	for _, slot := range t.InputSlots {
		home(slot).pin[slot] = true
	}
	for _, c := range t.ConstSlots {
		home(c.Slot).pin[c.Slot] = true
	}
	end := int32(len(s.insts))
	for _, r := range t.RegSlots {
		home(r.Q).pin[r.Q] = true
		home(r.Next).last[r.Next] = end
	}
	for _, slot := range t.OutputSlots {
		home(slot).last[slot] = end
	}
	for k := range st {
		for slot, p := range st[k].pin {
			if p {
				st[k].take(int32(slot))
			}
		}
	}
	for i := range s.insts {
		in := &s.insts[i]
		outP, argsP := in.code.packedSides()
		o, a := side(outP), side(argsP)
		o.take(in.out)
		for _, slot := range in.args(s.ext) {
			a.release(slot, int32(i))
		}
		o.release(in.out, int32(i)) // written, never read
	}
	s.wideRow, s.wideRows = st[0].row, int(st[0].rows)
	if packed != nil {
		s.packedRow, s.packedRows = st[1].row, int(st[1].rows)
	}
}

// toRows rewrites a schedule's instructions from slot space to row
// space, each side through the store its code binds. A spilled operand list
// belongs to its instruction alone, so it is rewritten in place.
func (s *batchSchedule) toRows() {
	for i := range s.insts {
		in := &s.insts[i]
		outRow, argRow := s.wideRow, s.wideRow
		outP, argsP := in.code.packedSides()
		if outP {
			outRow = s.packedRow
		}
		if argsP {
			argRow = s.packedRow
		}
		in.out = outRow[in.out]
		args := in.args(s.ext)
		for j, slot := range args {
			args[j] = argRow[slot]
		}
	}
}

// orderCommits turns the simultaneous register update — every Q takes its
// Next as settled, cs in register order — into moves that run one after
// another in place. A move may overwrite its Q row only after every
// register reading that row has run, so register i goes before the register
// whose Q it reads. Each register reads one row, so those constraints form
// chains that either end or close into a cycle: chains are emitted from
// their free ends, and a cycle is broken by first saving one of its Q rows
// to the temporary row of its store (tmpWide, tmpPacked), which the cycle's
// last move reads instead. A register reading its own Q moves in place.
// With no Next on another register's Q the order is register order.
func orderCommits(cs []commitInst, tmpWide, tmpPacked int32) []commitInst {
	type loc struct {
		row    int32
		packed bool
	}
	writer := make(map[loc]int, len(cs))
	for i, c := range cs {
		writer[loc{c.q, c.qp}] = i
	}
	// reads[i] is the register whose Q register i reads (-1: none but
	// perhaps its own); readers[k] counts the registers still to read Q of k.
	reads := make([]int, len(cs))
	readers := make([]int, len(cs))
	for i, c := range cs {
		reads[i] = -1
		if k, ok := writer[loc{c.next, c.np}]; ok && k != i {
			reads[i] = k
			readers[k]++
		}
	}
	moves := make([]commitInst, 0, len(cs))
	done := make([]bool, len(cs))
	for i := range cs {
		for k := i; k >= 0 && !done[k] && readers[k] == 0; {
			moves = append(moves, cs[k])
			done[k] = true
			if k = reads[k]; k >= 0 {
				readers[k]--
			}
		}
	}
	// What is left is cycles, each register with exactly one reader.
	for i := range cs {
		if done[i] {
			continue
		}
		save := commitInst{q: tmpWide, next: cs[i].q, qp: cs[i].qp, np: cs[i].qp}
		if save.qp {
			save.q = tmpPacked
		}
		moves = append(moves, save)
		for k := i; !done[k]; k = reads[k] {
			c := cs[k]
			if reads[k] == i {
				c.next = save.q
			}
			moves = append(moves, c)
			done[k] = true
		}
	}
	return moves
}

// runOps executes one segment of wide bodies over one lane block: ext is
// the schedule's operand table, wide the block's wide store, n lanes per
// row. The four rows an instruction can name are sliced to n lanes once,
// ahead of the dispatch (an unused operand is 0, still a row), so every
// body's lane loop runs without bounds checks.
func runOps(insts []batchInst, ext []int32, wide []uint64, n int) {
	row := func(r int32) []uint64 { off := int(r) * n; return wide[off : off+n : off+n] }
	for i := range insts {
		o := &insts[i]
		out, x, y, z, m := row(o.out), row(o.a[0]), row(o.a[1]), row(o.a[2]), o.mask
		switch o.code {
		case bcAdd:
			for l := range out {
				out[l] = x[l] + y[l]
			}
		case bcAddM:
			for l := range out {
				out[l] = (x[l] + y[l]) & m
			}
		case bcSub:
			for l := range out {
				out[l] = x[l] - y[l]
			}
		case bcSubM:
			for l := range out {
				out[l] = (x[l] - y[l]) & m
			}
		case bcMul:
			for l := range out {
				out[l] = x[l] * y[l]
			}
		case bcMulM:
			for l := range out {
				out[l] = (x[l] * y[l]) & m
			}
		case bcDiv:
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = x[l] / y[l]
				}
			}
		case bcDivM:
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = (x[l] / y[l]) & m
				}
			}
		case bcRem:
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = x[l] % y[l]
				}
			}
		case bcRemM:
			for l := range out {
				if y[l] == 0 {
					out[l] = 0
				} else {
					out[l] = (x[l] % y[l]) & m
				}
			}
		case bcAnd:
			for l := range out {
				out[l] = x[l] & y[l]
			}
		case bcAndM:
			for l := range out {
				out[l] = x[l] & y[l] & m
			}
		case bcOr:
			for l := range out {
				out[l] = x[l] | y[l]
			}
		case bcOrM:
			for l := range out {
				out[l] = (x[l] | y[l]) & m
			}
		case bcXor:
			for l := range out {
				out[l] = x[l] ^ y[l]
			}
		case bcXorM:
			for l := range out {
				out[l] = (x[l] ^ y[l]) & m
			}
		case bcEq:
			for l := range out {
				out[l] = b2u(x[l] == y[l])
			}
		case bcNeq:
			for l := range out {
				out[l] = b2u(x[l] != y[l])
			}
		case bcLt:
			for l := range out {
				out[l] = b2u(x[l] < y[l])
			}
		case bcLeq:
			for l := range out {
				out[l] = b2u(x[l] <= y[l])
			}
		case bcGt:
			for l := range out {
				out[l] = b2u(x[l] > y[l])
			}
		case bcGeq:
			for l := range out {
				out[l] = b2u(x[l] >= y[l])
			}
		case bcShl:
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = x[l] << uint(y[l])
				}
			}
		case bcShlM:
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = (x[l] << uint(y[l])) & m
				}
			}
		case bcShr:
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = x[l] >> uint(y[l])
				}
			}
		case bcShrM:
			for l := range out {
				if y[l] >= 64 {
					out[l] = 0
				} else {
					out[l] = (x[l] >> uint(y[l])) & m
				}
			}
		case bcCat:
			for l := range out {
				if z[l] >= 64 {
					out[l] = y[l]
				} else {
					out[l] = x[l]<<uint(z[l]) | y[l]
				}
			}
		case bcCatM:
			for l := range out {
				if z[l] >= 64 {
					out[l] = y[l] & m
				} else {
					out[l] = (x[l]<<uint(z[l]) | y[l]) & m
				}
			}
		case bcBits:
			for l := range out {
				hi, lo := y[l], z[l]
				if lo >= 64 || hi < lo {
					out[l] = 0
				} else {
					out[l] = (x[l] >> uint(lo)) & wire.Mask(int(hi-lo)+1)
				}
			}
		case bcBitsM:
			for l := range out {
				hi, lo := y[l], z[l]
				if lo >= 64 || hi < lo {
					out[l] = 0
				} else {
					out[l] = (x[l] >> uint(lo)) & wire.Mask(int(hi-lo)+1) & m
				}
			}
		case bcBitsC:
			sh := uint(o.sh)
			for l := range out {
				out[l] = (x[l] >> sh) & m
			}
		case bcNot:
			for l := range out {
				out[l] = ^x[l]
			}
		case bcNotM:
			for l := range out {
				out[l] = ^x[l] & m
			}
		case bcNeg:
			for l := range out {
				out[l] = -x[l]
			}
		case bcNegM:
			for l := range out {
				out[l] = (-x[l]) & m
			}
		case bcOrR:
			for l := range out {
				out[l] = b2u(x[l] != 0)
			}
		case bcXorR:
			for l := range out {
				out[l] = uint64(bits.OnesCount64(x[l]) & 1)
			}
		case bcMux:
			// Branchless select: data-dependent branches mispredict on
			// uncorrelated lane data, so build an all-ones/all-zeros mask
			// from the condition instead.
			c, x, y := x, y, z
			for l := range out {
				sel := -b2u(c[l] != 0)
				out[l] = y[l] ^ sel&(x[l]^y[l])
			}
		case bcMuxM:
			c, x, y := x, y, z
			for l := range out {
				sel := -b2u(c[l] != 0)
				out[l] = (y[l] ^ sel&(x[l]^y[l])) & m
			}
		case bcMuxChain:
			chain := o.args(ext)
			for l := range out {
				out[l] = muxChainRows(wide, chain, n, l)
			}
		case bcMuxChainM:
			chain := o.args(ext)
			for l := range out {
				out[l] = muxChainRows(wide, chain, n, l) & m
			}
		default: // bcGeneric: by value; an absent operand reads as operand 0
			if o.n < 2 {
				y = x
			}
			if o.n < 3 {
				z = x
			}
			for l := range out {
				out[l] = wire.Eval3(o.op, x[l], y[l], z[l], m)
			}
		}
	}
}

// runCrossings executes one segment of layout crossings over one lane block:
// bpUnpack materialises a packed row's wide view, bpPack re-packs a wide
// result.
func runCrossings(insts []batchInst, wide []uint64, pk [][blockWords]uint64, n int) {
	for i := range insts {
		o := &insts[i]
		if o.code == bpUnpack {
			unpackLanes(wide[int(o.out)*n:][:n], pk[o.a[0]][:])
		} else {
			packLanes(pk[o.out][:], wide[int(o.a[0])*n:][:n])
		}
	}
}

// muxChainRows walks a priority-mux chain's wide rows for one lane:
// (sel0, val0, sel1, val1, …, default).
func muxChainRows(wide []uint64, chain []int32, n, lane int) uint64 {
	k := len(chain)
	for i := 0; i+1 < k; i += 2 {
		if wide[int(chain[i])*n+lane] != 0 {
			return wide[int(chain[i+1])*n+lane]
		}
	}
	return wide[int(chain[k-1])*n+lane]
}

// runCommits performs one lane block's end-of-cycle register update: the
// schedule's moves in order, in place. Registers packed on both sides move
// one row of words; mixed registers pack or unpack per lane on the way.
func runCommits(cs []commitInst, wide []uint64, pk [][blockWords]uint64, n int) {
	for i := range cs {
		c := &cs[i]
		switch {
		case c.qp && c.np:
			pk[c.q] = pk[c.next] // both 1-bit: a row copy needs no mask
		case c.qp:
			packLanes(pk[c.q][:], wide[int(c.next)*n:][:n]) // register mask is 1; &1 applies it
		case c.np:
			unpackLanes(wide[int(c.q)*n:][:n], pk[c.next][:]) // a bit always fits the wide mask
		case c.masked:
			dst, src, m := wide[int(c.q)*n:][:n], wide[int(c.next)*n:][:n], c.mask
			for l := range dst {
				dst[l] = src[l] & m
			}
		default:
			copy(wide[int(c.q)*n:][:n], wide[int(c.next)*n:][:n])
		}
	}
}
