package kernel

import "rteaal/internal/wire"

// The NU, PSU, and IU kernels share the [I, N, S, O, R] loop order over the
// Figure 12c format, with the N rank unrolled into per-operation-type inner
// loops (Algorithm 4). Hoisting the operation-type dispatch out of the S
// loop is what lets each loop body stay branch-free — and is why runGroup
// keeps its own copy of the op semantics: the loop shape is the kernel.
//
// The S rank arrives run-length (oim.Run): a run's results are consecutive
// LI coordinates, so the loops below write LI in place with the output
// masks read sequentially beside it — no S coordinate load, no mask gather,
// no LO buffer and no write-back pass. In-place is safe for the reason TI
// is: levelization guarantees no operation reads a coordinate written in
// its own layer. Nothing here assumes a (layer, type) group is one run.

// runGroup evaluates one run: count operations sharing one signature whose
// results are LI[out : out+count], reading the R coordinate stream at ri. It
// returns the advanced ri.
func (e *engine) runGroup(op wire.Op, arity, out, count, ri int) int {
	li, rc := e.li, e.rc
	dst, masks := li[out:out+count], e.t.Masks[out:out+count]
	switch op {
	case wire.Add:
		for k := range dst {
			dst[k] = (li[rc[ri]] + li[rc[ri+1]]) & masks[k]
			ri += 2
		}
	case wire.Sub:
		for k := range dst {
			dst[k] = (li[rc[ri]] - li[rc[ri+1]]) & masks[k]
			ri += 2
		}
	case wire.Mul:
		for k := range dst {
			dst[k] = (li[rc[ri]] * li[rc[ri+1]]) & masks[k]
			ri += 2
		}
	case wire.And:
		for k := range dst {
			dst[k] = li[rc[ri]] & li[rc[ri+1]] & masks[k]
			ri += 2
		}
	case wire.Or:
		for k := range dst {
			dst[k] = (li[rc[ri]] | li[rc[ri+1]]) & masks[k]
			ri += 2
		}
	case wire.Xor:
		for k := range dst {
			dst[k] = (li[rc[ri]] ^ li[rc[ri+1]]) & masks[k]
			ri += 2
		}
	case wire.Eq:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] == li[rc[ri+1]])
			ri += 2
		}
	case wire.Neq:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] != li[rc[ri+1]])
			ri += 2
		}
	case wire.Lt:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] < li[rc[ri+1]])
			ri += 2
		}
	case wire.Leq:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] <= li[rc[ri+1]])
			ri += 2
		}
	case wire.Gt:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] > li[rc[ri+1]])
			ri += 2
		}
	case wire.Geq:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] >= li[rc[ri+1]])
			ri += 2
		}
	case wire.Not:
		for k := range dst {
			dst[k] = ^li[rc[ri]] & masks[k]
			ri++
		}
	case wire.Neg:
		for k := range dst {
			dst[k] = (-li[rc[ri]]) & masks[k]
			ri++
		}
	case wire.OrR:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] != 0)
			ri++
		}
	case wire.AndR:
		for k := range dst {
			dst[k] = b2u(li[rc[ri]] == li[rc[ri+1]])
			ri += 2
		}
	case wire.Mux:
		// All three operands are loaded and one selected, so random
		// stimulus costs a conditional move, not a mispredicted branch.
		for k := range dst {
			c, a, b := li[rc[ri]], li[rc[ri+1]], li[rc[ri+2]]
			if c != 0 {
				b = a
			}
			dst[k] = b & masks[k]
			ri += 3
		}
	case wire.Bits:
		for k := range dst {
			var v uint64
			if hi, lo := li[rc[ri+1]], li[rc[ri+2]]; lo < 64 && hi >= lo {
				v = (li[rc[ri]] >> lo) & wire.Mask(int(hi-lo)+1)
			}
			dst[k] = v & masks[k]
			ri += 3
		}
	case wire.Cat:
		for k := range dst {
			v := li[rc[ri+1]]
			if lw := li[rc[ri+2]]; lw < 64 {
				v |= li[rc[ri]] << lw
			}
			dst[k] = v & masks[k]
			ri += 3
		}
	case wire.MuxChain:
		for k := range dst {
			dst[k] = evalMuxChainSlots(li, rc[ri:ri+arity]) & masks[k]
			ri += arity
		}
	default: // no loop of its own (Shl, Shr, Div, Rem, XorR, Ident): by value
		var v [3]uint64
		for k := range dst {
			for o := 0; o < arity; o++ {
				v[o] = li[rc[ri+o]]
			}
			dst[k] = wire.Eval3(op, v[0], v[1], v[2], masks[k])
			ri += arity
		}
	}
	return ri
}

// evalMuxChainSlots applies the fused mux-chain over operand slots without
// materialising the operand values.
func evalMuxChainSlots(li []uint64, slots []int32) uint64 {
	n := len(slots)
	for i := 0; i+1 < n; i += 2 {
		if li[slots[i]] != 0 {
			return li[slots[i+1]]
		}
	}
	return li[slots[n-1]]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// settleNU is the N-rank-unrolled kernel (Algorithm 4).
func (e *engine) settleNU() {
	numSigs := len(e.t.OpTable)
	ru, ri := 0, 0
	for i := 0; i < len(e.t.LayerEnds); i++ { // Rank I
		for sig := 0; sig < numSigs; sig++ { // Unrolled rank N
			s := e.t.OpTable[sig]
			for left := e.npayload[i*numSigs+sig]; left > 0; ru++ { // Rank S, run by run
				r := e.runs[ru]
				ri = e.runGroup(s.Op, int(s.Arity), int(r.First), int(r.Count), ri)
				left -= r.Count
			}
		}
	}
}
