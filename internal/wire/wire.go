// Package wire defines the bit-vector value semantics shared by every
// simulation engine in this repository: the dataflow-graph oracle, the seven
// RTeAAL tensor kernels, the Verilator- and ESSENT-style baselines, and the
// abstract-ISA executor.
//
// Values are unsigned bit vectors of width 1..64 carried in uint64 words.
// Every operation masks its result to the destination width, so engines only
// need the per-signal mask table to agree bit-for-bit.
//
// The operation set mirrors the FIRRTL primitive operations the paper's
// frontend accepts (§6.1), after the frontend lowers width-dependent primops
// (pad/head/tail/cat/static shifts) into ops whose extra parameters arrive as
// ordinary operands. That keeps the OIM tensor the single structural
// description of the circuit: constants, including lowered width parameters,
// are just pre-initialised coordinates of the layer-input tensor LI.
package wire

import "fmt"

// Op identifies a primitive operation evaluated at a dataflow-graph node.
//
// The order is load-bearing: it is the coordinate space of the OIM tensor's N
// rank before per-design compaction.
type Op uint8

const (
	// Binary arithmetic. Results wrap to the destination width.
	Add Op = iota
	Sub
	Mul
	Div // x/0 evaluates to 0 (FIRRTL leaves it undefined; we pin it down)
	Rem // x%0 evaluates to 0

	// Bitwise binary.
	And
	Or
	Xor

	// Comparisons (unsigned). Result width is 1.
	Eq
	Neq
	Lt
	Leq
	Gt
	Geq

	// Shifts. The amount is an ordinary operand; amounts >= 64 saturate.
	Shl
	Shr

	// Cat concatenates hi and lo: operands are (hi, lo, loWidth).
	Cat
	// Bits extracts x[hi:lo]: operands are (x, hi, lo).
	Bits

	// Unary.
	Not // bitwise complement within the destination width
	Neg // two's complement negate within the destination width

	// Reductions. Result width is 1.
	AndR // operands are (x, fullMask): 1 iff x == fullMask
	OrR  // 1 iff x != 0
	XorR // parity of x

	// Mux selects: operands are (sel, then, else).
	Mux
	// MuxChain is the fused mux-chain operator (§6.1, operator fusion):
	// operands are (sel1, v1, sel2, v2, ..., default). The first pair whose
	// selector is nonzero wins; otherwise the trailing default.
	MuxChain

	// Ident copies its operand. Inserted during levelization to break
	// cross-layer dependencies (§4.2) and elided before OIM emission (§4.3);
	// it never appears in a generated kernel but the engines support it so
	// ablation builds can disable elision.
	Ident

	// NumOps is the number of operation kinds; not itself an operation.
	NumOps
)

var opNames = [NumOps]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor",
	Eq: "eq", Neq: "neq", Lt: "lt", Leq: "leq", Gt: "gt", Geq: "geq",
	Shl: "shl", Shr: "shr",
	Cat: "cat", Bits: "bits",
	Not: "not", Neg: "neg",
	AndR: "andr", OrR: "orr", XorR: "xorr",
	Mux: "mux", MuxChain: "muxchain",
	Ident: "ident",
}

func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// VarArity marks operations whose operand count is per-instance (MuxChain).
const VarArity = -1

var opArity = [NumOps]int{
	Add: 2, Sub: 2, Mul: 2, Div: 2, Rem: 2,
	And: 2, Or: 2, Xor: 2,
	Eq: 2, Neq: 2, Lt: 2, Leq: 2, Gt: 2, Geq: 2,
	Shl: 2, Shr: 2,
	Cat: 3, Bits: 3,
	Not: 1, Neg: 1,
	AndR: 2, OrR: 1, XorR: 1,
	Mux: 3, MuxChain: VarArity,
	Ident: 1,
}

// Arity returns the operand count of op, or VarArity for variable-arity ops.
func Arity(op Op) int { return opArity[op] }

// Reducible reports whether op can be evaluated by folding operands pairwise
// through the binary reduce compute operator (the op_r[n] class of §4.1).
// Only two-operand operations qualify: the reduce operator combines exactly
// one map temporary with the running reduce temporary.
func Reducible(op Op) bool {
	switch op {
	case Add, Sub, Mul, Div, Rem, And, Or, Xor,
		Eq, Neq, Lt, Leq, Gt, Geq, Shl, Shr, AndR:
		return true
	}
	return false
}

// Unary reports whether op belongs to the unary class handled by the map
// compute operator op_u[n] (§4.1).
func Unary(op Op) bool {
	switch op {
	case Not, Neg, OrR, XorR, Ident:
		return true
	}
	return false
}

// Gather reports whether op belongs to the class handled by the populate
// coordinate operator op_s[n] (§4.1): operations that must see the whole
// O-fiber of inputs before producing an output. This covers the paper's
// select operations (mux, fused mux chains) and the three-operand
// extraction/concatenation ops, which are neither unary nor pairwise
// reducible.
func Gather(op Op) bool {
	switch op {
	case Mux, MuxChain, Cat, Bits:
		return true
	}
	return false
}

// Mask returns the all-ones mask for a width in 1..64. Mask(0) is 0.
func Mask(width int) uint64 {
	if width <= 0 {
		return 0
	}
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Eval3 evaluates a fixed-arity op over by-value operands and masks the
// result to outMask; operands past the op's arity are ignored. MuxChain,
// whose arity is per-instance, goes through [Eval] or [EvalMuxChain].
func Eval3(op Op, x, y, z, outMask uint64) uint64 { return eval(op, x, y, z, outMask, nil) }

// Eval evaluates op over a slice of operands, MuxChain of any arity
// included.
func Eval(op Op, args []uint64, outMask uint64) uint64 { return eval(op, 0, 0, 0, outMask, args) }

// eval is the single source of truth for operation semantics — the one
// scalar switch: every engine routes through it or through a loop body held
// to it (see TestVMAgrees and the kernel equivalence tests). It has two
// inlined entry points so neither kind of caller pays a wrapper call: [Eval3]
// passes operands by value and no slice, [Eval] a slice whose leading
// operands are loaded here.
func eval(op Op, x, y, z, outMask uint64, args []uint64) uint64 {
	if len(args) > 0 {
		x = args[0]
		if len(args) > 1 {
			y = args[1]
		}
		if len(args) > 2 {
			z = args[2]
		}
	}
	var v uint64
	switch op {
	case Add:
		v = x + y
	case Sub:
		v = x - y
	case Mul:
		v = x * y
	case Div:
		if y != 0 {
			v = x / y
		}
	case Rem:
		if y != 0 {
			v = x % y
		}
	case And:
		v = x & y
	case Or:
		v = x | y
	case Xor:
		v = x ^ y
	case Eq, AndR:
		v = b2u(x == y)
	case Neq:
		v = b2u(x != y)
	case Lt:
		v = b2u(x < y)
	case Leq:
		v = b2u(x <= y)
	case Gt:
		v = b2u(x > y)
	case Geq:
		v = b2u(x >= y)
	case Shl:
		if y < 64 {
			v = x << y
		}
	case Shr:
		if y < 64 {
			v = x >> y
		}
	case Cat: // (hi, lo, loWidth)
		v = y
		if z < 64 {
			v |= x << z
		}
	case Bits: // (x, hi, lo)
		if z < 64 && y >= z {
			v = (x >> z) & Mask(int(y-z)+1)
		}
	case Not:
		v = ^x
	case Neg:
		v = -x
	case OrR:
		v = b2u(x != 0)
	case XorR:
		x ^= x >> 32
		x ^= x >> 16
		x ^= x >> 8
		x ^= x >> 4
		x ^= x >> 2
		x ^= x >> 1
		v = x & 1
	case Mux:
		v = z
		if x != 0 {
			v = y
		}
	case MuxChain:
		v = EvalMuxChain(args)
	case Ident:
		v = x
	default:
		panic("wire: unknown op " + op.String())
	}
	return v & outMask
}

// EvalMuxChain applies the fused mux-chain semantics to operands laid out as
// (sel1, v1, ..., selK, vK, default).
func EvalMuxChain(args []uint64) uint64 {
	n := len(args)
	for i := 0; i+1 < n; i += 2 {
		if args[i] != 0 {
			return args[i+1]
		}
	}
	return args[n-1]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ReduceStep applies the op_r[n] custom reduce operator of Algorithm 2: it
// combines the running reduce temporary with the next map temporary. The
// first operand (ordinal 0) is copied; later operands fold in. For
// non-reducible ops the map temporary simply replaces the temporary (the
// "copy" branch of Algorithm 2); gather ops are finished by PopulateGather.
func ReduceStep(op Op, prev uint64, mapTmp uint64, ordinal int, outMask uint64) uint64 {
	if ordinal == 0 || !Reducible(op) {
		// The copy branch must not mask: the temporary still carries a
		// full-width operand (consider lt with its 1-bit output); masking
		// happens when the reduce compute operator fires, or in the map /
		// populate steps for the unary and gather classes.
		return mapTmp
	}
	return Eval3(op, prev, mapTmp, 0, outMask)
}

// MapStep applies the op_u[n] custom map operator: unary ops transform the
// operand as it is read from LI; all other ops pass it through.
func MapStep(op Op, x uint64, outMask uint64) uint64 {
	if Unary(op) {
		return Eval3(op, x, 0, 0, outMask)
	}
	return x
}

// PopulateGather applies the op_s[n] populate coordinate operator over a
// fully collected O-fiber of operands (Einsum 13). It serves every Gather
// operation: the select ops choose one collected input, the extraction ops
// evaluate over all of them.
func PopulateGather(op Op, inputs []uint64, outMask uint64) uint64 {
	if !Gather(op) {
		panic("wire: PopulateGather on non-gather op " + op.String())
	}
	return Eval(op, inputs, outMask)
}
