package kernel

import (
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// The SU and TI kernels fully unroll the S rank: every operation becomes one
// entry of a flat "tape" with its operand coordinates and mask embedded as
// immediates — the Go analogue of encoding the whole OIM into the binary
// (§5.2 SU/TI). No coordinate or payload arrays are consulted at runtime.

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
	for _, layer := range t.Layers {
		for _, op := range layer {
			sig := t.OpTable[op.Sig]
			e := tapeOp{op: sig.Op, out: op.Out, n: sig.Arity, mask: t.Masks[op.Out]}
			if len(op.Args) <= 3 {
				copy(e.a[:], op.Args)
			} else {
				e.ext = op.Args
			}
			tape = append(tape, e)
		}
		layerEnds = append(layerEnds, len(tape))
	}
	return tape, layerEnds
}

// execTapeOp evaluates one tape entry against li.
func execTapeOp(li []uint64, e *tapeOp) uint64 {
	switch e.op {
	case wire.Add:
		return (li[e.a[0]] + li[e.a[1]]) & e.mask
	case wire.Sub:
		return (li[e.a[0]] - li[e.a[1]]) & e.mask
	case wire.Mul:
		return (li[e.a[0]] * li[e.a[1]]) & e.mask
	case wire.And:
		return li[e.a[0]] & li[e.a[1]] & e.mask
	case wire.Or:
		return (li[e.a[0]] | li[e.a[1]]) & e.mask
	case wire.Xor:
		return (li[e.a[0]] ^ li[e.a[1]]) & e.mask
	case wire.Eq, wire.AndR:
		return b2u(li[e.a[0]] == li[e.a[1]])
	case wire.Neq:
		return b2u(li[e.a[0]] != li[e.a[1]])
	case wire.Lt:
		return b2u(li[e.a[0]] < li[e.a[1]])
	case wire.Leq:
		return b2u(li[e.a[0]] <= li[e.a[1]])
	case wire.Gt:
		return b2u(li[e.a[0]] > li[e.a[1]])
	case wire.Geq:
		return b2u(li[e.a[0]] >= li[e.a[1]])
	case wire.Not:
		return ^li[e.a[0]] & e.mask
	case wire.Neg:
		return (-li[e.a[0]]) & e.mask
	case wire.OrR:
		return b2u(li[e.a[0]] != 0)
	case wire.Mux:
		if li[e.a[0]] != 0 {
			return li[e.a[1]] & e.mask
		}
		return li[e.a[2]] & e.mask
	case wire.MuxChain:
		if e.ext != nil {
			return evalMuxChainSlots(li, e.ext) & e.mask
		}
		return evalMuxChainSlots(li, e.a[:e.n]) & e.mask
	default:
		var args [3]uint64
		for i := 0; i < int(e.n); i++ {
			args[i] = li[e.a[i]]
		}
		return wire.Eval(e.op, args[:e.n], e.mask)
	}
}

// suEngine executes the flat tape with the LO buffer and per-layer
// write-back retained from the rolled kernels; only the loops and metadata
// are gone.
type suEngine struct {
	state
	lo        []uint64
	tape      []tapeOp
	layerEnds []int
}

func (e *suEngine) Name() string { return "SU" }

func (e *suEngine) Settle() {
	li, lo := e.li, e.lo
	start := 0
	for _, end := range e.layerEnds {
		for k := start; k < end; k++ {
			lo[k-start] = execTapeOp(li, &e.tape[k])
		}
		for k := start; k < end; k++ {
			li[e.tape[k].out] = lo[k-start]
		}
		start = end
	}
	e.sampleOutputs()
}

func (e *suEngine) Step() {
	e.Settle()
	e.commit()
}

// tiEngine adds tensor inlining (§5.2 TI): the LO tensor disappears and
// every operation writes its LI coordinate directly — safe because
// levelization guarantees no operation reads a coordinate written in its
// own layer. This mirrors the paper's replacement of arrays with individual
// C++ variables, giving the compiler maximum freedom; in the performance
// model TI's LI accesses are register-allocatable.
type tiEngine struct {
	state
	tape []tapeOp
}

func (e *tiEngine) Name() string { return "TI" }

func (e *tiEngine) Settle() {
	li := e.li
	for k := range e.tape {
		op := &e.tape[k]
		li[op.out] = execTapeOp(li, op)
	}
	e.sampleOutputs()
}

func (e *tiEngine) Step() {
	e.Settle()
	e.commit()
}
