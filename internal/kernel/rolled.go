package kernel

import "rteaal/internal/wire"

// settleRU is the mostly rolled kernel of Algorithm 3: loop order
// [I, S, N, O, R] over the optimized (or, for the format ablation, the
// unoptimized) array lowering, unrolling only the one-hot R rank. It walks
// the coordinate arrays exactly as the fibertree next() traversal would,
// keeping the full map / reduce / populate action structure.
func (e *engine) settleRU() {
	a := e.a
	t := e.t
	k := 0 // running op index (S traversal)
	r := 0 // running operand index (R traversal)
	var selInputs [8]uint64
	var sel []uint64
	for i := 0; i < len(a.IPayload); i++ { // Rank I
		ip := int(a.IPayload[i])
		for s := 0; s < ip; s++ { // Rank S
			n := a.NCoord[k] // Rank N (one-hot next())
			sig := t.OpTable[n]
			op := sig.Op
			arity := int(sig.Arity)
			if !a.Optimized {
				// The unoptimized format re-reads the redundant payload
				// arrays the optimized format elides (Figure 12a).
				arity = int(a.NPayload[k])
				_ = a.SPayload[k]
			}
			mask := t.Masks[a.SCoord[k]]
			if arity <= len(selInputs) {
				sel = selInputs[:0]
			} else {
				sel = make([]uint64, 0, arity)
			}
			var reduceTmp uint64
			for o := 0; o < arity; o++ { // Rank O
				rc := a.RCoord[r] // Rank R (one-hot next(), unrolled)
				if !a.Optimized {
					_ = a.OPayload[r]
					_ = a.RPayload[r]
				}
				r++
				operand := e.li[rc]
				sel = append(sel, operand)
				mapTmp := wire.MapStep(op, operand, mask)
				reduceTmp = wire.ReduceStep(op, reduceTmp, mapTmp, o, mask)
			}
			out := reduceTmp
			if wire.Gather(op) {
				out = wire.PopulateGather(op, sel, mask)
			}
			e.lo[s] = out
			k++
		}
		// Write LO back to LI at the layer's S coordinates.
		base := k - ip
		for s := 0; s < ip; s++ {
			e.li[a.SCoord[base+s]] = e.lo[s]
		}
	}
}

// settleOU adds full O-rank unrolling on top of RU: operands are fetched
// with straight-line loads per arity and handed to the evaluator by value,
// removing the per-operand action scaffolding (§5.2 OU). The loop order and
// format are unchanged — the O rank has no metadata, so unrolling it costs
// nothing.
func (e *engine) settleOU() {
	a := e.a
	t := e.t
	li := e.li
	k, r := 0, 0
	for i := 0; i < len(a.IPayload); i++ {
		ip := int(a.IPayload[i])
		for s := 0; s < ip; s++ {
			sig := t.OpTable[a.NCoord[k]]
			mask := t.Masks[a.SCoord[k]]
			var out uint64
			switch rc := a.RCoord[r:]; wire.Arity(sig.Op) {
			case 1:
				out = wire.Eval3(sig.Op, li[rc[0]], 0, 0, mask)
			case 2:
				out = wire.Eval3(sig.Op, li[rc[0]], li[rc[1]], 0, mask)
			case 3:
				out = wire.Eval3(sig.Op, li[rc[0]], li[rc[1]], li[rc[2]], mask)
			default: // variable-arity mux chains stay rolled
				out = evalMuxChainSlots(li, rc[:sig.Arity]) & mask
			}
			r += int(sig.Arity)
			e.lo[s] = out
			k++
		}
		base := k - ip
		for s := 0; s < ip; s++ {
			li[a.SCoord[base+s]] = e.lo[s]
		}
	}
}
