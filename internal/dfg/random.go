package dfg

import (
	"math/rand"

	"rteaal/internal/wire"
)

// RandomParams shapes RandomGraph's output. All counts are approximate
// targets; the generator always produces a valid graph.
type RandomParams struct {
	Inputs   int
	Regs     int
	Ops      int
	Consts   int
	MaxWidth int // widths are drawn from 1..MaxWidth (<= 64)
	// MuxBias in [0,1] raises the share of mux operations, which exercises
	// the select class and mux-chain fusion.
	MuxBias float64
	// ShiftBias in [0,1] raises the share of sharp-edged shift operations:
	// constant amounts at, just below, and beyond the operand width
	// (including >= 64, the saturation edge) and fully dynamic amounts drawn
	// from wide nodes, which under random stimulus routinely exceed the
	// operand width. Zero keeps the historical distribution, where such
	// shifts are effectively never produced.
	ShiftBias float64
	// DivZeroBias in [0,1] raises the share of division/remainder
	// operations whose divisor is *dynamically* zero: the divisor is routed
	// through a mux with a constant-zero arm or masked to a narrow field, so
	// ordinary random stimulus actually exercises the x/0 == 0 and
	// x%0 == 0 semantics every engine must pin down identically. Zero keeps
	// the historical distribution, where a zero divisor is vanishingly rare.
	DivZeroBias float64
}

// DefaultRandomParams is a small circuit suitable for property tests.
func DefaultRandomParams() RandomParams {
	return RandomParams{Inputs: 4, Regs: 6, Ops: 60, Consts: 5, MaxWidth: 16, MuxBias: 0.25}
}

// RandomGraph generates a pseudo-random synchronous circuit. The result is
// always acyclic (arguments are drawn from already-created nodes), every
// register gets a next-state, and a handful of outputs are exported. It is
// the workhorse of the cross-engine equivalence property tests.
func RandomGraph(rng *rand.Rand, p RandomParams) *Graph {
	if p.MaxWidth <= 0 || p.MaxWidth > 64 {
		p.MaxWidth = 16
	}
	g := &Graph{Name: "random"}
	width := func() int { return 1 + rng.Intn(p.MaxWidth) }

	var pool []NodeID
	for i := 0; i < p.Inputs; i++ {
		pool = append(pool, g.AddInput(randName(rng, "in", i), width()))
	}
	var regs []NodeID
	for i := 0; i < p.Regs; i++ {
		id := g.AddReg(randName(rng, "r", i), width(), rng.Uint64())
		regs = append(regs, id)
		pool = append(pool, id)
	}
	for i := 0; i < p.Consts; i++ {
		pool = append(pool, g.AddConst(rng.Uint64(), width()))
	}
	if len(pool) == 0 {
		pool = append(pool, g.AddConst(1, 1))
	}

	pick := func() NodeID { return pool[rng.Intn(len(pool))] }

	binaryOps := []wire.Op{
		wire.Add, wire.Sub, wire.Mul, wire.Div, wire.Rem,
		wire.And, wire.Or, wire.Xor,
		wire.Eq, wire.Neq, wire.Lt, wire.Leq, wire.Gt, wire.Geq,
		wire.Shl, wire.Shr,
	}
	unaryOps := []wire.Op{wire.Not, wire.Neg, wire.OrR, wire.XorR}

	for i := 0; i < p.Ops; i++ {
		w := width()
		var id NodeID
		switch r := rng.Float64(); {
		case r < p.MuxBias:
			if rng.Intn(3) == 0 {
				// Explicit else-nested chain. Interior muxes stay off the
				// pool, so they remain single-use and width-matched — the
				// exact shape the mux-chain fusion pass (§6.1) absorbs.
				cur := pick()
				for depth := 2 + rng.Intn(3); depth > 0; depth-- {
					cur = g.AddOp(wire.Mux, w, pick(), pick(), cur)
				}
				id = cur
			} else {
				id = g.AddOp(wire.Mux, w, pick(), pick(), pick())
			}
		case r < p.MuxBias+0.12:
			id = g.AddOp(unaryOps[rng.Intn(len(unaryOps))], condWidth(w, rng), pick())
		case r < p.MuxBias+0.20:
			// Structured cat/bits with in-range constant parameters.
			x := pick()
			xw := int(g.Nodes[x].Width)
			if rng.Intn(2) == 0 && xw >= 2 {
				lo := rng.Intn(xw)
				hi := lo + rng.Intn(xw-lo)
				hiC := g.AddConst(uint64(hi), 7)
				loC := g.AddConst(uint64(lo), 7)
				id = g.AddOp(wire.Bits, hi-lo+1, x, hiC, loC)
			} else {
				y := pick()
				yw := int(g.Nodes[y].Width)
				total := xw + yw
				if total > 64 {
					id = g.AddOp(wire.Xor, w, pick(), pick())
				} else {
					lwC := g.AddConst(uint64(yw), 7)
					id = g.AddOp(wire.Cat, total, x, y, lwC)
				}
			}
		case r < p.MuxBias+0.24:
			x := pick()
			maskC := g.AddConst(g.Nodes[x].Mask(), 64)
			id = g.AddOp(wire.AndR, 1, x, maskC)
		case r < p.MuxBias+0.24+p.ShiftBias:
			// Sharp shift edges: the amount sits at, around, or beyond the
			// operand width — including the >= 64 saturation edge — or is a
			// fully dynamic wide value that random stimulus pushes past the
			// width on its own.
			op := wire.Shl
			if rng.Intn(2) == 0 {
				op = wire.Shr
			}
			x := pick()
			xw := int(g.Nodes[x].Width)
			var amt NodeID
			switch rng.Intn(4) {
			case 0: // at or just past the operand width
				amt = g.AddConst(uint64(xw+rng.Intn(3)), 7)
			case 1: // just below the width (the last in-range amounts)
				amt = g.AddConst(uint64(max(xw-1-rng.Intn(2), 0)), 7)
			case 2: // the uint64 saturation edge
				amt = g.AddConst(uint64(63+rng.Intn(4)), 7)
			default: // dynamic: any node, wide values overshoot routinely
				amt = pick()
			}
			id = g.AddOp(op, w, x, amt)
		case r < p.MuxBias+0.24+p.ShiftBias+p.DivZeroBias:
			// Division/remainder with a dynamically-zero divisor: route the
			// divisor through a mux whose one arm is a constant zero (the
			// selector toggles under stimulus) or mask it to a narrow field
			// that is zero a large fraction of the time.
			op := wire.Div
			if rng.Intn(2) == 0 {
				op = wire.Rem
			}
			num := pick()
			var den NodeID
			dw := condWidth(w, rng)
			if rng.Intn(2) == 0 {
				zero := g.AddConst(0, dw)
				den = g.AddOp(wire.Mux, dw, pick(), zero, pick())
			} else {
				narrow := g.AddConst(uint64(rng.Intn(4)), dw)
				den = g.AddOp(wire.And, dw, pick(), narrow)
			}
			id = g.AddOp(op, w, num, den)
		default:
			op := binaryOps[rng.Intn(len(binaryOps))]
			ow := w
			switch op {
			case wire.Eq, wire.Neq, wire.Lt, wire.Leq, wire.Gt, wire.Geq:
				ow = 1
			}
			id = g.AddOp(op, ow, pick(), pick())
		}
		pool = append(pool, id)
	}

	// Connect register next-states to width-matching nodes, synthesising a
	// truncation when necessary.
	for _, q := range regs {
		w := int(g.Nodes[q].Width)
		src := pick()
		if int(g.Nodes[src].Width) != w {
			hiC := g.AddConst(uint64(w-1), 7)
			loC := g.AddConst(0, 7)
			src = g.AddOp(wire.Bits, w, src, hiC, loC)
		}
		g.SetRegNext(q, src)
	}

	// Export a few outputs so DCE keeps interesting logic alive.
	nOut := 2 + rng.Intn(3)
	for i := 0; i < nOut; i++ {
		g.AddOutput(randName(rng, "out", i), pool[rng.Intn(len(pool))])
	}
	return g
}

func condWidth(w int, rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return 1 // reduction-style
	}
	return w
}

func randName(rng *rand.Rand, prefix string, i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := []byte{letters[rng.Intn(26)], letters[rng.Intn(26)]}
	return prefix + "_" + string(b) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// CommitMovesGraph is the fixed design of the differential harness whose
// register update holds every shape an engine committing one register at a
// time, in place, has to order. On 1-bit and on 8-bit registers alike: two
// registers swapping values, three rotating them, one holding its own, a
// shift chain of 64 fed from an input, and five registers loading the Q of a
// rotating one. Two more registers are 1-bit on one side only in a batch's
// packed layout: qw's Q selects between wide values (and loads a packed Q),
// qp loads a comparison of wide values.
func CommitMovesGraph() *Graph {
	g := &Graph{Name: "commitmoves"}
	var in, swap, rot, tail [2]NodeID
	for k, w := range []int{1, 8} {
		name := func(s string) string { return s + itoa(w) }
		in[k] = g.AddInput(name("in"), w)
		a, b := g.AddReg(name("swap_a"), w, 0xa5), g.AddReg(name("swap_b"), w, 0x3c)
		g.SetRegNext(a, b)
		g.SetRegNext(b, a)
		r0, r1, r2 := g.AddReg(name("rot_a"), w, 0x11), g.AddReg(name("rot_b"), w, 0x22), g.AddReg(name("rot_c"), w, 0x44)
		g.SetRegNext(r0, r1)
		g.SetRegNext(r1, r2)
		g.SetRegNext(r2, r0)
		hold := g.AddReg(name("hold"), w, 0x5b)
		g.SetRegNext(hold, hold)
		prev := in[k]
		for i := 0; i < 64; i++ {
			r := g.AddReg(name("chain")+"_"+itoa(i), w, uint64(i))
			g.SetRegNext(r, prev)
			prev = r
		}
		for i := 0; i < 5; i++ {
			g.SetRegNext(g.AddReg(name("fan")+"_"+itoa(i), w, uint64(i)), r0)
		}
		swap[k], rot[k], tail[k] = a, r0, prev
		g.AddOutput(name("swap"), a)
		g.AddOutput(name("rot"), r2)
		g.AddOutput(name("hold"), hold)
		g.AddOutput(name("tail"), prev)
	}
	qw := g.AddReg("qw", 1, 0)
	qp := g.AddReg("qp", 1, 1)
	acc := g.AddReg("acc", 8, 0)
	neq := g.AddOp(wire.Neq, 1, in[1], tail[1])
	pick := g.AddOp(wire.Xor, 8,
		g.AddOp(wire.Mux, 8, qw, in[1], tail[1]),
		g.AddOp(wire.Mux, 8, qw, rot[1], swap[1]))
	g.SetRegNext(qw, swap[0])
	g.SetRegNext(qp, neq)
	g.SetRegNext(acc, g.AddOp(wire.Add, 8, acc, g.AddOp(wire.Mux, 8, neq, pick, in[1])))
	g.AddOutput("gate", g.AddOp(wire.And, 1, qp, g.AddOp(wire.Xor, 1, rot[0], tail[0])))
	g.AddOutput("acc", acc)
	return g
}
