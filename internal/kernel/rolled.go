package kernel

import (
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// ruEngine is the mostly rolled kernel of Algorithm 3: loop order
// [I, S, N, O, R] over the optimized (or, for the format ablation, the
// unoptimized) array lowering, unrolling only the one-hot R rank. It walks
// the coordinate arrays exactly as the fibertree next() traversal would,
// keeping the full map / reduce / populate action structure.
type ruEngine struct {
	state
	lo []uint64
	a  *oim.Arrays
}

func (e *ruEngine) Name() string { return "RU" }

func (e *ruEngine) Settle() {
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
	e.sampleOutputs()
}

func (e *ruEngine) Step() {
	e.Settle()
	e.commit()
}

// ouEngine adds full O-rank unrolling on top of RU: operands are fetched
// with straight-line loads per arity instead of an inner loop, removing the
// per-operand action scaffolding (§5.2 OU). The loop order and format are
// unchanged — the O rank has no metadata, so unrolling it costs nothing.
type ouEngine struct {
	state
	lo []uint64
	a  *oim.Arrays
}

func (e *ouEngine) Name() string { return "OU" }

func (e *ouEngine) Settle() {
	a := e.a
	t := e.t
	li := e.li
	k, r := 0, 0
	var argbuf [3]uint64
	for i := 0; i < len(a.IPayload); i++ {
		ip := int(a.IPayload[i])
		for s := 0; s < ip; s++ {
			sig := t.OpTable[a.NCoord[k]]
			mask := t.Masks[a.SCoord[k]]
			var out uint64
			switch sig.Arity {
			case 1:
				argbuf[0] = li[a.RCoord[r]]
				out = wire.Eval(sig.Op, argbuf[:1], mask)
				r++
			case 2:
				argbuf[0] = li[a.RCoord[r]]
				argbuf[1] = li[a.RCoord[r+1]]
				out = wire.Eval(sig.Op, argbuf[:2], mask)
				r += 2
			case 3:
				argbuf[0] = li[a.RCoord[r]]
				argbuf[1] = li[a.RCoord[r+1]]
				argbuf[2] = li[a.RCoord[r+2]]
				out = wire.Eval(sig.Op, argbuf[:3], mask)
				r += 3
			default: // variable-arity mux chains keep a rolled gather
				args := make([]uint64, sig.Arity)
				for o := range args {
					args[o] = li[a.RCoord[r]]
					r++
				}
				out = wire.EvalMuxChain(args) & mask
			}
			e.lo[s] = out
			k++
		}
		base := k - ip
		for s := 0; s < ip; s++ {
			li[a.SCoord[base+s]] = e.lo[s]
		}
	}
	e.sampleOutputs()
}

func (e *ouEngine) Step() {
	e.Settle()
	e.commit()
}
