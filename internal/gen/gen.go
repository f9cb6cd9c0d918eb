// Package gen synthesises the benchmark designs of the paper's evaluation
// (§7.1): RocketChip-like and SmallBOOM-like multicore SoCs, Gemmini-like
// systolic accelerators, and a SHA3 accelerator. The real Chipyard FIRRTL
// dumps are not redistributable (and reach 150+ MB), so these generators
// produce circuits whose dataflow-graph statistics — operation counts and
// mix, layer depth, value lifetimes, fanout — are calibrated to Table 1 and
// the design descriptions; everything downstream of the dataflow graph is
// the real RTeAAL pipeline.
//
// Two of the designs carry real functionality rather than statistical
// shape: the SHA3 design embeds a full 24-round Keccak-f[1600] permutation
// (validated against a software implementation in the tests), and the
// Gemmini design embeds a genuine output-stationary systolic multiply-
// accumulate grid.
package gen

import (
	"fmt"
	"math/rand"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// Family identifies a benchmark design family.
type Family uint8

const (
	// Rocket is the in-order RocketChip-like SoC.
	Rocket Family = iota
	// Boom is the out-of-order SmallBOOM-like SoC (the paper's "small").
	Boom
	// Gemmini is the systolic-array accelerator plus a host core.
	Gemmini
	// SHA3 is the Keccak accelerator plus glue.
	SHA3
	// Ctrl is a control-plane arbiter fabric: token-ring channel arbiters
	// whose state is almost entirely 1-bit (requests, pendings, tokens,
	// grant history), the bit-packing stress design. Unlike the Table 1
	// families it models no paper design; it exists so the benchmark suite
	// has a circuit where word-wide packed evaluation should dominate.
	Ctrl
)

func (f Family) String() string {
	switch f {
	case Rocket:
		return "rocket"
	case Boom:
		return "small"
	case Gemmini:
		return "gemmini"
	case Ctrl:
		return "ctrl"
	default:
		return "sha3"
	}
}

// Spec selects a design instance.
type Spec struct {
	Family Family
	// Cores is the core count for Rocket/Boom (1..24), the grid dimension
	// for Gemmini (8, 16, or 32), and the arbiter channel count for Ctrl.
	// Ignored for SHA3.
	Cores int
	// Scale divides the synthesised size by the given factor (>= 1) so
	// perf-model sweeps stay tractable; 1 reproduces the calibrated size.
	Scale int
}

// Name renders the paper's design labels — r1..r24, s1..s12, g8/g16/g32,
// sha3 — plus c<channels> for the Ctrl arbiter fabric.
func (s Spec) Name() string {
	switch s.Family {
	case Rocket:
		return fmt.Sprintf("r%d", s.Cores)
	case Boom:
		return fmt.Sprintf("s%d", s.Cores)
	case Gemmini:
		return fmt.Sprintf("g%d", s.Cores)
	case Ctrl:
		return fmt.Sprintf("c%d", s.Cores)
	default:
		return "sha3"
	}
}

func (s Spec) norm() Spec {
	if s.Cores < 1 {
		s.Cores = 1
	}
	if s.Scale < 1 {
		s.Scale = 1
	}
	return s
}

// coreParams shape the synthetic SoC generator. Operation and register
// budgets are split into an uncore share (caches, bus, periphery — one
// instance) and a per-core share (one instance per core), matching the
// base + per-core structure of the Table 1 design sizes.
type coreParams struct {
	uncoreOps  int     // uncore effectual operation target
	coreOps    int     // per-core effectual operation target
	uncoreRegs int     // uncore architectural registers
	coreRegs   int     // per-core architectural registers
	inputs     int     // primary inputs (fed to the uncore)
	layers     int     // pipeline depth (dataflow layers)
	muxShare   float64 // fraction of mux/select operations
	farBias    float64 // probability an operand reaches far back (stretches
	// value lifetimes, which drives the identity-op count of Table 1)
	width int
}

// params calibrated against Table 1 (see TestTable1Calibration).
func (s Spec) params() coreParams {
	s = s.norm()
	switch s.Family {
	case Rocket:
		return coreParams{
			uncoreOps:  51_400 / s.Scale,
			coreOps:    11_800 / s.Scale,
			uncoreRegs: 6_000 / s.Scale,
			coreRegs:   1_400 / s.Scale,
			inputs:     64,
			layers:     42,
			muxShare:   0.30,
			farBias:    0.145,
			width:      32,
		}
	case Boom:
		return coreParams{
			uncoreOps:  73_100 / s.Scale,
			coreOps:    29_500 / s.Scale,
			uncoreRegs: 9_000 / s.Scale,
			coreRegs:   3_200 / s.Scale,
			inputs:     64,
			layers:     56,
			muxShare:   0.34,
			farBias:    0.158,
			width:      40,
		}
	case Gemmini:
		return coreParams{ // host core share; the MAC grid is added on top
			uncoreOps:  48_000 / s.Scale,
			coreOps:    11_700 / s.Scale,
			uncoreRegs: 6_000 / s.Scale,
			coreRegs:   1_400 / s.Scale,
			inputs:     64,
			layers:     42,
			muxShare:   0.30,
			farBias:    0.145,
			width:      32,
		}
	default: // SHA3: glue logic only; the permutation is added on top
		return coreParams{
			uncoreOps:  9_000 / s.Scale,
			uncoreRegs: 900 / s.Scale,
			inputs:     32,
			layers:     18,
			muxShare:   0.28,
			farBias:    0.35,
			width:      64,
		}
	}
}

// Generate synthesises the design.
func Generate(spec Spec) (*dfg.Graph, error) {
	spec = spec.norm()
	rng := rand.New(rand.NewSource(int64(spec.Family)*1_000_003 + int64(spec.Cores)*7919 + int64(spec.Scale)))
	g := &dfg.Graph{Name: spec.Name()}
	p := spec.params()
	switch spec.Family {
	case Rocket, Boom:
		synthSoC(g, rng, p, spec.Cores)
	case Gemmini:
		synthSoC(g, rng, p, 1) // host core + uncore
		dim := spec.Cores
		if dim < 2 {
			dim = 8
		}
		addMACGrid(g, dim, 8, spec.Scale)
	case SHA3:
		synthSoC(g, rng, p, 0) // glue only
		addKeccak(g)
	case Ctrl:
		addCtrl(g, max(8, spec.Cores/spec.Scale))
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gen: %s: %w", spec.Name(), err)
	}
	return g, nil
}

// module is one synthesised pipeline block: its registers and the final
// combinational layer other blocks may observe.
type module struct {
	regs []dfg.NodeID
	last []dfg.NodeID
}

// synthSoC builds the calibrated SoC: one uncore pipeline (fed by the
// primary inputs) and `cores` core pipelines, coupled exclusively through
// explicit bus registers. Cores read the shared bus registers' committed
// values; the bus writes back a mix of uncore values and per-core response
// registers. Because combinational fan-in cones stop at register Q
// coordinates, each core's logic forms its own cone cluster — the modular
// structure real Chipyard SoCs have, and what a structure-aware partition
// strategy exists to find (the cut reduces to the bus exchange). cores == 0
// builds just the uncore block, for accelerator glue.
func synthSoC(g *dfg.Graph, rng *rand.Rand, p coreParams, cores int) {
	w := p.width
	var inputs []dfg.NodeID
	for i := 0; i < p.inputs; i++ {
		inputs = append(inputs, g.AddInput(fmt.Sprintf("io_in_%d", i), w))
	}
	if cores < 1 {
		m := synthModule(g, rng, "glue", p, p.uncoreOps, p.uncoreRegs, inputs, nil)
		for i := 0; i < 16 && i < len(m.last); i++ {
			g.AddOutput(fmt.Sprintf("io_out_%d", i), m.last[(i*13)%len(m.last)])
		}
		return
	}

	// Shared bus registers, created first so both sides read their Q values.
	busN := max(4, min(16, 2*cores+6))
	bus := make([]dfg.NodeID, busN)
	for i := range bus {
		bus[i] = g.AddReg(fmt.Sprintf("bus_%d", i), w, rng.Uint64())
	}
	unc := synthModule(g, rng, "uncore", p, p.uncoreOps, max(p.uncoreRegs-busN, 1), inputs, bus)

	var resp []dfg.NodeID // per-core response registers the bus reads back
	for c := 0; c < cores; c++ {
		// Each core reads the shared bus plus one private interrupt-style
		// input, and exports a couple of its registers back to the bus.
		irq := g.AddInput(fmt.Sprintf("io_irq_%d", c), 1)
		m := synthModule(g, rng, fmt.Sprintf("core%d", c), p,
			p.coreOps, p.coreRegs, []dfg.NodeID{irq}, bus)
		for k := 0; k < 2 && k < len(m.regs); k++ {
			resp = append(resp, m.regs[(k*7)%len(m.regs)])
		}
		g.AddOutput(fmt.Sprintf("io_core%d_out", c), m.last[len(m.last)-1])
	}

	// Bus write-back: each bus register arbitrates between an uncore value
	// and one core's response register.
	for i, b := range bus {
		sel := g.AddOp(wire.OrR, 1, unc.last[(i*11+2)%len(unc.last)])
		src := unc.last[(i*5)%len(unc.last)]
		val := g.AddOp(wire.Bits, w, src, g.AddConst(uint64(w-1), 7), g.AddConst(0, 7))
		g.SetRegNext(b, g.AddOp(wire.Mux, w, sel, val, resp[i%len(resp)]))
	}

	// Observation outputs from the uncore.
	for i := 0; i < 16 && i < len(unc.last); i++ {
		g.AddOutput(fmt.Sprintf("io_out_%d", i), unc.last[(i*13)%len(unc.last)])
	}
}

// synthModule builds one statistically calibrated pipeline block: layers of
// operations whose operands mostly come from the previous layer (datapath
// locality) with a farBias share reaching back to old layers and registers
// (long-lived control/state values, which is what makes real designs need
// the large identity counts of Table 1 before elision). inputs and sources
// are external values the module may read — its combinational cones stop at
// any source that is a register.
func synthModule(g *dfg.Graph, rng *rand.Rand, name string, p coreParams,
	ops, nregs int, inputs, sources []dfg.NodeID) module {
	w := p.width
	regs := make([]dfg.NodeID, max(nregs, 1))
	for i := range regs {
		regs[i] = g.AddReg(fmt.Sprintf("%s_reg_%d", name, i), w, rng.Uint64())
	}
	srcs := append(append([]dfg.NodeID(nil), inputs...), sources...)
	srcs = append(srcs, regs...)

	perLayer := ops / p.layers
	if perLayer < 1 {
		perLayer = 1
	}
	prev := srcs
	all := append([]dfg.NodeID(nil), srcs...)

	pickPrev := func() dfg.NodeID { return prev[rng.Intn(len(prev))] }
	pickFar := func() dfg.NodeID { return all[rng.Intn(len(all))] }
	pick := func() dfg.NodeID {
		if rng.Float64() < p.farBias {
			return pickFar()
		}
		return pickPrev()
	}

	binOps := []wire.Op{wire.Add, wire.Sub, wire.And, wire.Or, wire.Xor,
		wire.Eq, wire.Lt, wire.Add, wire.Xor, wire.Or} // ALU-weighted mix
	var last []dfg.NodeID
	for l := 0; l < p.layers; l++ {
		layer := make([]dfg.NodeID, 0, perLayer)
		for k := 0; k < perLayer; k++ {
			var id dfg.NodeID
			r := rng.Float64()
			switch {
			case r < p.muxShare:
				id = g.AddOp(wire.Mux, w, pick(), pick(), pick())
			case r < p.muxShare+0.08:
				// Bit extraction (decode-style).
				hi := uint64(rng.Intn(w))
				lo := uint64(rng.Intn(int(hi) + 1))
				id = g.AddOp(wire.Bits, int(hi)-int(lo)+1,
					pick(), g.AddConst(hi, 7), g.AddConst(lo, 7))
			case r < p.muxShare+0.12:
				id = g.AddOp(wire.Not, w, pick())
			default:
				op := binOps[rng.Intn(len(binOps))]
				ow := w
				if op == wire.Eq || op == wire.Lt {
					ow = 1
				}
				id = g.AddOp(op, ow, pick(), pick())
			}
			layer = append(layer, id)
			all = append(all, id)
		}
		last = layer
		prev = layer
	}

	// Register write-back: next-states come from the last layers (a
	// writeback mux between old value and a computed value).
	for i, q := range regs {
		src := last[i%len(last)]
		sel := last[(i*7+3)%len(last)]
		cond := g.AddOp(wire.OrR, 1, sel)
		val := g.AddOp(wire.Bits, w, src, g.AddConst(uint64(w-1), 7), g.AddConst(0, 7))
		g.SetRegNext(q, g.AddOp(wire.Mux, w, cond, val, q))
	}
	return module{regs: regs, last: last}
}

// addMACGrid attaches a real output-stationary systolic multiply-accumulate
// grid (the Gemmini mesh): dim x dim processing elements with A flowing
// east, B flowing south, and per-PE accumulators. Inputs a_i feed the rows,
// b_j the columns; acc_i_j are exported for verification.
func addMACGrid(g *dfg.Graph, dim, width, scale int) {
	if scale > 1 {
		dim = dim / scale
		if dim < 2 {
			dim = 2
		}
	}
	accW := 2*width + 8
	clear := g.AddInput("mesh_clear", 1)
	aIn := make([]dfg.NodeID, dim)
	bIn := make([]dfg.NodeID, dim)
	for i := 0; i < dim; i++ {
		aIn[i] = g.AddInput(fmt.Sprintf("mesh_a_%d", i), width)
		bIn[i] = g.AddInput(fmt.Sprintf("mesh_b_%d", i), width)
	}
	zero := g.AddConst(0, accW)
	// aReg[i][j] holds the A value flowing through PE (i,j); bReg likewise.
	aReg := make([][]dfg.NodeID, dim)
	bReg := make([][]dfg.NodeID, dim)
	acc := make([][]dfg.NodeID, dim)
	for i := 0; i < dim; i++ {
		aReg[i] = make([]dfg.NodeID, dim)
		bReg[i] = make([]dfg.NodeID, dim)
		acc[i] = make([]dfg.NodeID, dim)
		for j := 0; j < dim; j++ {
			aReg[i][j] = g.AddReg(fmt.Sprintf("mesh_A_%d_%d", i, j), width, 0)
			bReg[i][j] = g.AddReg(fmt.Sprintf("mesh_B_%d_%d", i, j), width, 0)
			acc[i][j] = g.AddReg(fmt.Sprintf("mesh_acc_%d_%d", i, j), accW, 0)
		}
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			aSrc := aIn[i]
			if j > 0 {
				aSrc = aReg[i][j-1]
			}
			bSrc := bIn[j]
			if i > 0 {
				bSrc = bReg[i-1][j]
			}
			g.SetRegNext(aReg[i][j], aSrc)
			g.SetRegNext(bReg[i][j], bSrc)
			prod := g.AddOp(wire.Mul, accW, aReg[i][j], bReg[i][j])
			sum := g.AddOp(wire.Add, accW, acc[i][j], prod)
			next := g.AddOp(wire.Mux, accW, clear, zero, sum)
			g.SetRegNext(acc[i][j], next)
		}
	}
	for i := 0; i < dim; i++ {
		g.AddOutput(fmt.Sprintf("mesh_acc_%d_%d", i, i), acc[i][i])
	}
	// Export corner accumulators for tests.
	g.AddOutput("mesh_acc_last", acc[dim-1][dim-1])
}

// addCtrl builds the control-plane arbiter fabric: `channels` request
// channels arbitrated by a rotating token ring. Per channel the state is a
// pending flag, a token bit, and a 4-deep grant-history shift register —
// all 1-bit — plus one shared 16-bit utilisation counter whose update mux
// and saturation compare tie the wide datapath to the packed control bits
// (exercising the pack/unpack shims, not just the all-packed fast path).
// Virtually every slot of the resulting OIM is provably 1-bit, making this
// the design where bit-packed batch evaluation should win by the largest
// margin; the wide-heavy SoC families bound the other end.
func addCtrl(g *dfg.Graph, channels int) {
	enable := g.AddInput("ctrl_enable", 1)
	req := make([]dfg.NodeID, channels)
	tok := make([]dfg.NodeID, channels)
	pend := make([]dfg.NodeID, channels)
	for c := 0; c < channels; c++ {
		req[c] = g.AddInput(fmt.Sprintf("ctrl_req_%d", c), 1)
		init := uint64(0)
		if c == 0 {
			init = 1 // the token starts at channel 0
		}
		tok[c] = g.AddReg(fmt.Sprintf("ctrl_tok_%d", c), 1, init)
		pend[c] = g.AddReg(fmt.Sprintf("ctrl_pend_%d", c), 1, 0)
	}
	util := g.AddReg("ctrl_util", 16, 0)
	full := g.AddOp(wire.Eq, 1, util, g.AddConst(0xFFFF, 16))

	grants := make([]dfg.NodeID, channels)
	for c := 0; c < channels; c++ {
		grants[c] = g.AddOp(wire.And, 1, g.AddOp(wire.And, 1, pend[c], tok[c]), enable)
	}
	// Pairwise or-trees keep the reduction shallow like a real arbiter's.
	orTree := func(xs []dfg.NodeID) dfg.NodeID {
		for len(xs) > 1 {
			var next []dfg.NodeID
			for i := 0; i+1 < len(xs); i += 2 {
				next = append(next, g.AddOp(wire.Or, 1, xs[i], xs[i+1]))
			}
			if len(xs)%2 == 1 {
				next = append(next, xs[len(xs)-1])
			}
			xs = next
		}
		return xs[0]
	}
	anyGrant := orTree(append([]dfg.NodeID(nil), grants...))
	anyPend := orTree(append([]dfg.NodeID(nil), pend...))
	idle := g.AddOp(wire.Not, 1, anyPend)
	advance := g.AddOp(wire.Or, 1, anyGrant, g.AddOp(wire.Or, 1, idle, full))

	for c := 0; c < channels; c++ {
		prev := tok[(c+channels-1)%channels]
		g.SetRegNext(tok[c], g.AddOp(wire.Mux, 1, advance, prev, tok[c]))
		accept := g.AddOp(wire.Or, 1, req[c], pend[c])
		g.SetRegNext(pend[c], g.AddOp(wire.And, 1, accept, g.AddOp(wire.Not, 1, grants[c])))
	}

	// Grant history: a 4-deep 1-bit shift register per channel, folded into
	// one parity output so the registers stay live through optimisation.
	var hist []dfg.NodeID
	for c := 0; c < channels; c++ {
		h := grants[c]
		for k := 0; k < 4; k++ {
			hr := g.AddReg(fmt.Sprintf("ctrl_hist_%d_%d", c, k), 1, 0)
			g.SetRegNext(hr, h)
			h = hr
			hist = append(hist, hr)
		}
	}
	parity := hist[0]
	for _, h := range hist[1:] {
		parity = g.AddOp(wire.Xor, 1, parity, h)
	}

	// The shared utilisation counter: saturating-reset on full, counting on
	// any grant — both selects are packed booleans steering a wide mux.
	inc := g.AddOp(wire.Add, 16, util, g.AddConst(1, 16))
	counted := g.AddOp(wire.Mux, 16, anyGrant, inc, util)
	g.SetRegNext(util, g.AddOp(wire.Mux, 16, full, g.AddConst(0, 16), counted))

	g.AddOutput("ctrl_any_grant", anyGrant)
	g.AddOutput("ctrl_any_pend", anyPend)
	g.AddOutput("ctrl_full", full)
	g.AddOutput("ctrl_util", util)
	g.AddOutput("ctrl_hist_parity", parity)
	g.AddOutput("ctrl_grant_0", grants[0])
}

var keccakRC = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

var keccakRot = [5][5]int{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// addKeccak attaches a full combinational Keccak-f[1600] permutation: 25
// 64-bit lane registers absorb the input when `absorb` is high and are
// replaced by the 24-round permutation of their current value every cycle
// otherwise. This is the real SHA3 datapath — TestKeccakMatchesSoftware
// validates it against a software implementation.
func addKeccak(g *dfg.Graph) {
	absorb := g.AddInput("sha_absorb", 1)
	din := make([]dfg.NodeID, 25)
	lanes := make([]dfg.NodeID, 25)
	for i := 0; i < 25; i++ {
		din[i] = g.AddInput(fmt.Sprintf("sha_din_%d", i), 64)
		lanes[i] = g.AddReg(fmt.Sprintf("sha_lane_%d", i), 64, 0)
	}
	rot := func(x dfg.NodeID, n int) dfg.NodeID {
		if n == 0 {
			return x
		}
		l := g.AddOp(wire.Shl, 64, x, g.AddConst(uint64(n), 7))
		r := g.AddOp(wire.Shr, 64, x, g.AddConst(uint64(64-n), 7))
		return g.AddOp(wire.Or, 64, l, r)
	}
	xor := func(a, b dfg.NodeID) dfg.NodeID { return g.AddOp(wire.Xor, 64, a, b) }

	st := append([]dfg.NodeID(nil), lanes...)
	at := func(x, y int) dfg.NodeID { return st[x+5*y] }
	for round := 0; round < 24; round++ {
		// Theta.
		var c [5]dfg.NodeID
		for x := 0; x < 5; x++ {
			c[x] = xor(xor(at(x, 0), at(x, 1)), xor(at(x, 2), xor(at(x, 3), at(x, 4))))
		}
		var d [5]dfg.NodeID
		for x := 0; x < 5; x++ {
			d[x] = xor(c[(x+4)%5], rot(c[(x+1)%5], 1))
		}
		tmp := make([]dfg.NodeID, 25)
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				tmp[x+5*y] = xor(at(x, y), d[x])
			}
		}
		// Rho + Pi.
		b := make([]dfg.NodeID, 25)
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = rot(tmp[x+5*y], keccakRot[x][y])
			}
		}
		// Chi.
		nxt := make([]dfg.NodeID, 25)
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				notB := g.AddOp(wire.Not, 64, b[(x+1)%5+5*y])
				andB := g.AddOp(wire.And, 64, notB, b[(x+2)%5+5*y])
				nxt[x+5*y] = xor(b[x+5*y], andB)
			}
		}
		// Iota.
		nxt[0] = xor(nxt[0], g.AddConst(keccakRC[round], 64))
		st = nxt
	}
	for i := 0; i < 25; i++ {
		g.SetRegNext(lanes[i], g.AddOp(wire.Mux, 64, absorb, din[i], st[i]))
		if i < 4 {
			g.AddOutput(fmt.Sprintf("sha_out_%d", i), lanes[i])
		}
	}
}
