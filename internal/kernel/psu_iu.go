package kernel

import "rteaal/internal/wire"

// PSU partially unrolls the S rank on top of NU: the compute loops of the
// most common operation types run 8 operations per iteration (§5.2 PSU: "24
// and 8 were chosen because they work well in practice"; the paper's 24x
// loop is the write-back, which the LI layout elides here). Partial
// unrolling needs no format change.
const psuComputeUnroll = 8

// runGroup8 evaluates one run like runGroup, with the 8x-unrolled compute
// loop for the highest-frequency 2-operand operation types; the remainder
// and all other types fall through to the shared rolled group runner. It is
// PSU's rung of the ladder and settlePSU is its one caller: IU, the
// default, runs the rolled runGroup.
func (e *engine) runGroup8(op wire.Op, arity, out, count, ri int) int {
	li, rc := e.li, e.rc
	dst, masks := li[out:out+count], e.t.Masks[out:out+count]
	k := 0
	switch op {
	case wire.Add:
		for ; k+psuComputeUnroll <= count; k += psuComputeUnroll {
			dst[k+0] = (li[rc[ri+0]] + li[rc[ri+1]]) & masks[k+0]
			dst[k+1] = (li[rc[ri+2]] + li[rc[ri+3]]) & masks[k+1]
			dst[k+2] = (li[rc[ri+4]] + li[rc[ri+5]]) & masks[k+2]
			dst[k+3] = (li[rc[ri+6]] + li[rc[ri+7]]) & masks[k+3]
			dst[k+4] = (li[rc[ri+8]] + li[rc[ri+9]]) & masks[k+4]
			dst[k+5] = (li[rc[ri+10]] + li[rc[ri+11]]) & masks[k+5]
			dst[k+6] = (li[rc[ri+12]] + li[rc[ri+13]]) & masks[k+6]
			dst[k+7] = (li[rc[ri+14]] + li[rc[ri+15]]) & masks[k+7]
			ri += 16
		}
	case wire.And:
		for ; k+psuComputeUnroll <= count; k += psuComputeUnroll {
			dst[k+0] = li[rc[ri+0]] & li[rc[ri+1]] & masks[k+0]
			dst[k+1] = li[rc[ri+2]] & li[rc[ri+3]] & masks[k+1]
			dst[k+2] = li[rc[ri+4]] & li[rc[ri+5]] & masks[k+2]
			dst[k+3] = li[rc[ri+6]] & li[rc[ri+7]] & masks[k+3]
			dst[k+4] = li[rc[ri+8]] & li[rc[ri+9]] & masks[k+4]
			dst[k+5] = li[rc[ri+10]] & li[rc[ri+11]] & masks[k+5]
			dst[k+6] = li[rc[ri+12]] & li[rc[ri+13]] & masks[k+6]
			dst[k+7] = li[rc[ri+14]] & li[rc[ri+15]] & masks[k+7]
			ri += 16
		}
	case wire.Or:
		for ; k+psuComputeUnroll <= count; k += psuComputeUnroll {
			dst[k+0] = (li[rc[ri+0]] | li[rc[ri+1]]) & masks[k+0]
			dst[k+1] = (li[rc[ri+2]] | li[rc[ri+3]]) & masks[k+1]
			dst[k+2] = (li[rc[ri+4]] | li[rc[ri+5]]) & masks[k+2]
			dst[k+3] = (li[rc[ri+6]] | li[rc[ri+7]]) & masks[k+3]
			dst[k+4] = (li[rc[ri+8]] | li[rc[ri+9]]) & masks[k+4]
			dst[k+5] = (li[rc[ri+10]] | li[rc[ri+11]]) & masks[k+5]
			dst[k+6] = (li[rc[ri+12]] | li[rc[ri+13]]) & masks[k+6]
			dst[k+7] = (li[rc[ri+14]] | li[rc[ri+15]]) & masks[k+7]
			ri += 16
		}
	case wire.Xor:
		for ; k+psuComputeUnroll <= count; k += psuComputeUnroll {
			dst[k+0] = (li[rc[ri+0]] ^ li[rc[ri+1]]) & masks[k+0]
			dst[k+1] = (li[rc[ri+2]] ^ li[rc[ri+3]]) & masks[k+1]
			dst[k+2] = (li[rc[ri+4]] ^ li[rc[ri+5]]) & masks[k+2]
			dst[k+3] = (li[rc[ri+6]] ^ li[rc[ri+7]]) & masks[k+3]
			dst[k+4] = (li[rc[ri+8]] ^ li[rc[ri+9]]) & masks[k+4]
			dst[k+5] = (li[rc[ri+10]] ^ li[rc[ri+11]]) & masks[k+5]
			dst[k+6] = (li[rc[ri+12]] ^ li[rc[ri+13]]) & masks[k+6]
			dst[k+7] = (li[rc[ri+14]] ^ li[rc[ri+15]]) & masks[k+7]
			ri += 16
		}
	}
	if k < count {
		ri = e.runGroup(op, arity, out+k, count-k, ri)
	}
	return ri
}

func (e *engine) settlePSU() {
	numSigs := len(e.t.OpTable)
	ru, ri := 0, 0
	for i := 0; i < len(e.t.LayerEnds); i++ {
		for sig := 0; sig < numSigs; sig++ {
			s := e.t.OpTable[sig]
			for left := e.npayload[i*numSigs+sig]; left > 0; ru++ {
				r := e.runs[ru]
				ri = e.runGroup8(s.Op, int(s.Arity), int(r.First), int(r.Count), ri)
				left -= r.Count
			}
		}
	}
}

// settleIU fully unrolls the I rank: the tensor's run list already names
// every non-empty (layer, type) stretch, so the settle loop walks it
// directly and never visits a group with zero operations (§5.2 IU). Each
// run is one rolled runGroup, not PSU's 8x body: most runs are short (a
// RepCut partition of r4/8 averages under 10 operations, c2048 3), so the
// 8x bodies rarely fill and their second dispatch costs more than they save,
// while on full r1's long runs the two bodies measure alike.
func (e *engine) settleIU() {
	ri := 0
	for _, r := range e.runs {
		s := e.t.OpTable[r.Sig]
		ri = e.runGroup(s.Op, int(s.Arity), int(r.First), int(r.Count), ri)
	}
}
