package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
	"rteaal/sim"
)

// TestBatchMatchesSessionIdenticalLanes drives every lane of a batch with
// the same stimulus a single session sees and requires bit-identical
// register and output traces, for every kernel compilation and for both the
// sequential and the worker-sharded batch engine.
func TestBatchMatchesSessionIdenticalLanes(t *testing.T) {
	src := genDesignSrc(t)
	for _, k := range sim.Kernels() {
		for _, workers := range []int{1, 3} {
			d, err := sim.Compile(src, sim.WithKernel(k))
			if err != nil {
				t.Fatal(err)
			}
			nIn := len(d.Inputs())
			const lanes, cycles = 4, 5
			b, err := d.NewBatchParallel(lanes, workers)
			if err != nil {
				t.Fatal(err)
			}
			if b.Lanes() != lanes {
				t.Fatalf("Lanes() = %d", b.Lanes())
			}
			if b.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", b.Workers(), workers)
			}
			s := d.NewSession()
			rngS := rand.New(rand.NewSource(42))
			rngB := rand.New(rand.NewSource(42))
			for c := 0; c < cycles; c++ {
				for i := 0; i < nIn; i++ {
					s.PokeIndex(i, rngS.Uint64())
				}
				for i := 0; i < nIn; i++ {
					v := rngB.Uint64()
					for lane := 0; lane < lanes; lane++ {
						b.PokeIndex(lane, i, v)
					}
				}
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				b.Step()
				wantRegs := s.Registers()
				for lane := 0; lane < lanes; lane++ {
					gotRegs := b.Registers(lane)
					for i := range wantRegs {
						if gotRegs[i] != wantRegs[i] {
							t.Fatalf("%v workers %d cycle %d lane %d: reg[%d] = %d, session %d",
								k, workers, c, lane, i, gotRegs[i], wantRegs[i])
						}
					}
					for i := range d.Outputs() {
						if got, want := b.PeekIndex(lane, i), s.PeekIndex(i); got != want {
							t.Fatalf("%v workers %d cycle %d lane %d: out[%d] = %d, session %d",
								k, workers, c, lane, i, got, want)
						}
					}
				}
			}
			if b.Cycle() != cycles {
				t.Fatalf("batch cycle = %d", b.Cycle())
			}
			b.Close()
		}
	}
}

// TestBatchLanesAreIndependent feeds each lane a distinct stimulus and
// checks every lane against its own dedicated session.
func TestBatchLanesAreIndependent(t *testing.T) {
	src := genDesignSrc(t)
	d, err := sim.Compile(src, sim.WithKernel(sim.PSU))
	if err != nil {
		t.Fatal(err)
	}
	nIn := len(d.Inputs())
	const lanes, cycles = 3, 4
	b, err := d.NewBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	var batchTraces [lanes][]uint64
	rngs := make([]*rand.Rand, lanes)
	for lane := range rngs {
		rngs[lane] = rand.New(rand.NewSource(int64(1000 + lane)))
	}
	for c := 0; c < cycles; c++ {
		for lane := 0; lane < lanes; lane++ {
			for i := 0; i < nIn; i++ {
				b.PokeIndex(lane, i, rngs[lane].Uint64())
			}
		}
		b.Step()
		for lane := 0; lane < lanes; lane++ {
			batchTraces[lane] = append(batchTraces[lane], b.Registers(lane)...)
		}
	}
	for lane := 0; lane < lanes; lane++ {
		want := sessionTrace(t, d.NewSession(), int64(1000+lane), cycles, nIn)
		for i := range want {
			if batchTraces[lane][i] != want[i] {
				t.Fatalf("lane %d diverges from its session at trace[%d]: %d != %d",
					lane, i, batchTraces[lane][i], want[i])
			}
		}
	}
}

// opHeavyGraph builds a random circuit saturated with one target operation:
// every second op is the target, fed by a moving pool of inputs, registers,
// and earlier results, with register next-states and outputs keeping the
// logic alive. Compiling with optimisation passes disabled guarantees the
// target ops reach the tape unfused.
func opHeavyGraph(rng *rand.Rand, op wire.Op, unary bool) *dfg.Graph {
	g := &dfg.Graph{Name: "ops"}
	width := func() int { return 1 + rng.Intn(16) }
	var pool []dfg.NodeID
	for i := 0; i < 3; i++ {
		pool = append(pool, g.AddInput(fmt.Sprintf("in%d", i), width()))
	}
	var regs []dfg.NodeID
	for i := 0; i < 4; i++ {
		id := g.AddReg(fmt.Sprintf("r%d", i), width(), rng.Uint64())
		regs = append(regs, id)
		pool = append(pool, id)
	}
	pick := func() dfg.NodeID { return pool[rng.Intn(len(pool))] }
	mixers := []wire.Op{wire.Add, wire.Xor, wire.And}
	for i := 0; i < 40; i++ {
		var id dfg.NodeID
		if i%2 == 0 {
			if unary {
				w := width()
				if op == wire.XorR {
					w = 1
				}
				id = g.AddOp(op, w, pick())
			} else {
				id = g.AddOp(op, width(), pick(), pick())
			}
		} else {
			id = g.AddOp(mixers[rng.Intn(len(mixers))], width(), pick(), pick())
		}
		pool = append(pool, id)
	}
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
	for i := 0; i < 3; i++ {
		g.AddOutput(fmt.Sprintf("out%d", i), pool[len(pool)-1-i*5])
	}
	return g
}

// TestBatchOpParity pins the dedicated batch fast cases for Div, Rem, Shl,
// Shr, and XorR (previously the generic wire.Eval fallback) to sessions on
// random op-saturated designs, for sequential and worker-sharded batches.
func TestBatchOpParity(t *testing.T) {
	ops := []struct {
		op    wire.Op
		unary bool
	}{
		{wire.Div, false},
		{wire.Rem, false},
		{wire.Shl, false},
		{wire.Shr, false},
		{wire.XorR, true},
	}
	rng := rand.New(rand.NewSource(2026))
	const lanes, cycles = 3, 6
	for _, tc := range ops {
		for trial := 0; trial < 5; trial++ {
			g := opHeavyGraph(rng, tc.op, tc.unary)
			// No optimisation — the target ops must survive to the schedule —
			// so the graph goes to the kernel layer without dfg.Optimize, the
			// way difftest builds its reference leg.
			prog := unoptimizedProgram(t, g)
			ten := prog.Tensor()
			nOut := len(ten.OutputSlots)
			for _, workers := range []int{1, 2} {
				b, err := prog.InstantiateBatchWith(lanes, kernel.BatchOptions{Workers: workers, Packing: true})
				if err != nil {
					t.Fatal(err)
				}
				rngs := make([]*rand.Rand, lanes)
				for lane := range rngs {
					rngs[lane] = rand.New(rand.NewSource(int64(trial*100 + lane)))
				}
				var traces [lanes][]uint64
				for c := 0; c < cycles; c++ {
					for lane := 0; lane < lanes; lane++ {
						for _, slot := range ten.InputSlots {
							b.PokeSlot(lane, slot, rngs[lane].Uint64())
						}
					}
					b.Run(1)
					for lane := 0; lane < lanes; lane++ {
						for _, r := range ten.RegSlots {
							traces[lane] = append(traces[lane], b.PeekSlot(lane, r.Q))
						}
						for i := 0; i < nOut; i++ {
							traces[lane] = append(traces[lane], b.PeekOutput(lane, i))
						}
					}
				}
				b.Close()
				for lane := 0; lane < lanes; lane++ {
					s := prog.Instantiate()
					rng := rand.New(rand.NewSource(int64(trial*100 + lane)))
					var want []uint64
					for c := 0; c < cycles; c++ {
						for _, slot := range ten.InputSlots {
							s.PokeSlot(slot, rng.Uint64())
						}
						s.Step()
						for _, r := range ten.RegSlots {
							want = append(want, s.PeekSlot(r.Q))
						}
						for i := 0; i < nOut; i++ {
							want = append(want, s.PeekOutput(i))
						}
					}
					for i := range want {
						if traces[lane][i] != want[i] {
							t.Fatalf("%v trial %d workers %d lane %d: batch diverges at trace[%d]: %d != %d",
								tc.op, trial, workers, lane, i, traces[lane][i], want[i])
						}
					}
				}
			}
		}
	}
}

// unoptimizedProgram lowers g as it stands — no dfg pass — to a PSU program:
// dfg.Levelize → oim.Build → kernel.NewProgram, the path sim.CompileGraph
// takes after dfg.Optimize.
func unoptimizedProgram(t *testing.T, g *dfg.Graph) *kernel.Program {
	t.Helper()
	lv, err := dfg.Levelize(g)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := kernel.NewProgram(ten, kernel.Config{Kind: kernel.PSU})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestBatchWorkersOption covers where a batch's worker count is chosen: at
// minting. NewBatch runs one worker, NewBatchParallel the count it is given,
// and a non-positive count is a mint error.
func TestBatchWorkersOption(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Workers() != 1 {
		t.Fatalf("NewBatch workers = %d, want 1", b.Workers())
	}
	b.Close()
	o, err := d.NewBatchParallel(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers() != 4 {
		t.Fatalf("NewBatchParallel workers = %d, want 4", o.Workers())
	}
	o.Close()
	if _, err := d.NewBatchParallel(8, 0); err == nil {
		t.Fatal("NewBatchParallel(8, 0) accepted")
	}
}

func TestBatchNamedPortsAndReset(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewBatch(0); err == nil {
		t.Fatal("NewBatch(0) accepted")
	}
	if err := b.Poke(0, "step", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Poke(1, "step", 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Poke(0, "bogus", 1); err == nil {
		t.Fatal("poke of unknown input accepted")
	}
	if err := b.Poke(2, "step", 1); err == nil {
		t.Fatal("poke of out-of-range lane accepted")
	}
	if _, err := b.Peek(-1, "count"); err == nil {
		t.Fatal("peek of out-of-range lane accepted")
	}
	b.Run(10)
	// Outputs are sampled at settle, before that cycle's register commit.
	v0, err := b.Peek(0, "count")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := b.Peek(1, "count")
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 9 || v1 != 27 {
		t.Fatalf("settled counts = %d, %d; want 9, 27", v0, v1)
	}
	if r0, r1 := b.Registers(0)[0], b.Registers(1)[0]; r0 != 10 || r1 != 30 {
		t.Fatalf("committed counts = %d, %d; want 10, 30", r0, r1)
	}
	b.Reset()
	if b.Cycle() != 0 {
		t.Fatalf("cycle after reset = %d", b.Cycle())
	}
	if err := b.PokeAll("step", 2); err != nil {
		t.Fatal(err)
	}
	b.Run(5)
	for lane := 0; lane < 2; lane++ {
		if got := b.Registers(lane)[0]; got != 10 {
			t.Fatalf("lane %d after reset+run: %d, want 10", lane, got)
		}
	}
}

// foldedConstSrc has two constants a schedule compiler is tempted to bake
// in, both reachable through an output port: k is CSE-merged with the high
// bound of the field extract, and one feeds both packed and wide logic (so
// a packed batch keeps it packed and reads it through its wide view).
const foldedConstSrc = `
circuit K :
  module K :
    input x : UInt<8>
    input a : UInt<1>
    output k : UInt<7>
    output y : UInt<4>
    output one : UInt<1>
    output z : UInt<1>
    output w : UInt<9>
    k <= UInt<7>(5)
    y <= bits(x, 5, 2)
    one <= UInt<1>(1)
    z <= and(a, one)
    w <= add(x, one)
`

// TestPortPokeOfFoldedConstant pokes output ports whose LI slots hold
// constants: every engine must honour the poke like any other slot write,
// so the batch schedule may fold only constants no port can reach.
func TestPortPokeOfFoldedConstant(t *testing.T) {
	run := func(name string, tb *sim.Testbench) {
		t.Helper()
		port := func(name string) *sim.Port {
			p, err := tb.Port(name)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		port("x").Poke(0xff)
		port("a").Poke(1)
		port("k").Poke(3)
		port("one").Poke(0)
		if err := tb.Step(); err != nil {
			t.Fatal(err)
		}
		// bits(0xff, 3, 2) = 3, and(1, 0) = 0, add(0xff, 0) = 0xff.
		for out, want := range map[string]uint64{"y": 3, "z": 0, "w": 0xff} {
			if got := port(out).Peek(); got != want {
				t.Errorf("%s: %s = %#x after the constant pokes, want %#x", name, out, got, want)
			}
		}
	}
	d, err := sim.Compile(foldedConstSrc)
	if err != nil {
		t.Fatal(err)
	}
	run("session", d.NewSession().Testbench())
	for i, mint := range []func(*sim.Design, int, int) (*sim.Batch, error){sim.NewWideBatch, (*sim.Design).NewBatchParallel} {
		packing := i == 1
		b, err := mint(d, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b.Packed() != packing {
			t.Fatalf("batch/packed=%v: Packed() = %v", packing, b.Packed())
		}
		run(fmt.Sprintf("batch/packed=%v", packing), b.Testbench())
		b.Close()
	}
}
