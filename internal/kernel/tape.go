package kernel

import (
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// The SU and TI kernels fully unroll the S rank: every operation becomes one
// entry of a flat "tape" with its operand coordinates and mask embedded as
// immediates — the Go analogue of encoding the whole OIM into the binary
// (§5.2 SU/TI). No coordinate or payload arrays are consulted at runtime.
// The settle loops hand an entry's three inline slots to wire.Eval3 by value
// (an unused slot is coordinate 0, loaded and ignored), calling it from the
// loop itself: a helper in between is one more call per operation, which
// read 5-8 % slower on r1/8.

// tapeOp is one fully unrolled operation. Up to three operand slots are
// stored inline; variable-arity mux chains spill to ext.
type tapeOp struct {
	op   wire.Op
	out  int32
	a    [3]int32
	n    uint8
	ext  []int32
	mask uint64
}

func buildTape(t *oim.Tensor) (tape []tapeOp, layerEnds []int) {
	tape = make([]tapeOp, 0, t.TotalOps())
	layerEnds = make([]int, t.NumLayers())
	t.Ops(func(layer int, n uint16, out int32, args []int32) {
		sig := t.OpTable[n]
		e := tapeOp{op: sig.Op, out: out, n: sig.Arity, mask: t.Masks[out]}
		if len(args) <= 3 {
			copy(e.a[:], args)
		} else {
			e.ext = args
		}
		tape = append(tape, e)
		layerEnds[layer]++
	})
	for i := 1; i < len(layerEnds); i++ {
		layerEnds[i] += layerEnds[i-1]
	}
	return tape, layerEnds
}

// evalMuxChain evaluates a mux-chain entry, the one operation whose arity is
// per-instance: it walks its operand coordinates, inline or spilled.
func (e *tapeOp) evalMuxChain(li []uint64) uint64 {
	slots := e.ext
	if slots == nil {
		slots = e.a[:e.n]
	}
	return evalMuxChainSlots(li, slots) & e.mask
}

// settleSU executes the flat tape with the LO buffer and per-layer
// write-back retained from the rolled kernels; only the loops and metadata
// are gone.
func (e *engine) settleSU() {
	li, lo := e.li, e.lo
	start := 0
	for _, end := range e.layerEnds {
		for k := start; k < end; k++ {
			if op := &e.tape[k]; op.op == wire.MuxChain {
				lo[k-start] = op.evalMuxChain(li)
			} else {
				lo[k-start] = wire.Eval3(op.op, li[op.a[0]], li[op.a[1]], li[op.a[2]], op.mask)
			}
		}
		for k := start; k < end; k++ {
			li[e.tape[k].out] = lo[k-start]
		}
		start = end
	}
}

// settleTI adds tensor inlining (§5.2 TI): the LO tensor disappears and
// every operation writes its LI coordinate directly — safe because
// levelization guarantees no operation reads a coordinate written in its
// own layer. This mirrors the paper's replacement of arrays with individual
// C++ variables, giving the compiler maximum freedom; in the performance
// model TI's LI accesses are register-allocatable.
func (e *engine) settleTI() {
	li := e.li
	for k := range e.tape {
		if op := &e.tape[k]; op.op == wire.MuxChain {
			li[op.out] = op.evalMuxChain(li)
		} else {
			li[op.out] = wire.Eval3(op.op, li[op.a[0]], li[op.a[1]], li[op.a[2]], op.mask)
		}
	}
}
