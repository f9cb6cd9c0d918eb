package sim_test

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/wire"
	"rteaal/sim"
)

// handshakeGraph is a small control circuit rich in 1-bit state: a
// valid/ready pair with a pending flag, a token toggle, and a wide byte
// register whose update is gated by the packed grant bit.
func handshakeGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "hs"}
	valid := g.AddInput("valid", 1)
	ready := g.AddInput("ready", 1)
	data := g.AddInput("data", 8)
	pend := g.AddReg("pend", 1, 0)
	tok := g.AddReg("tok", 1, 1)
	buf := g.AddReg("buf", 8, 0)
	fire := g.AddOp(wire.And, 1, valid, ready)
	grant := g.AddOp(wire.And, 1, fire, tok)
	g.SetRegNext(tok, g.AddOp(wire.Xor, 1, tok, fire))
	g.SetRegNext(pend, g.AddOp(wire.And, 1, valid, g.AddOp(wire.Not, 1, grant)))
	g.SetRegNext(buf, g.AddOp(wire.Mux, 8, grant, data, buf))
	g.AddOutput("pend_out", pend)
	g.AddOutput("buf_out", buf)
	return g
}

// TestBatchPackingParity runs one control-heavy design's batch and a batch
// of it over the wide schedule with identical per-lane stimulus, and
// requires bit-identical traces — the public contract that packing changes
// layout, never semantics. Also pins that the batch really packs and the
// wide one really doesn't.
func TestBatchPackingParity(t *testing.T) {
	on, err := sim.CompileGraph(handshakeGraph())
	if err != nil {
		t.Fatal(err)
	}
	const lanes, cycles = 70, 20 // straddle a 64-lane word boundary
	bOn, err := on.NewBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	bOff, err := sim.NewWideBatch(on, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !bOn.Packed() {
		t.Fatal("control design did not pack")
	}
	if bOff.Packed() {
		t.Fatal("the wide batch packed")
	}
	nIn := len(on.Inputs())
	rngs := make([]*rand.Rand, lanes)
	for lane := range rngs {
		rngs[lane] = rand.New(rand.NewSource(int64(300 + lane)))
	}
	for c := 0; c < cycles; c++ {
		for lane := 0; lane < lanes; lane++ {
			for i := 0; i < nIn; i++ {
				v := rngs[lane].Uint64()
				bOn.PokeIndex(lane, i, v)
				bOff.PokeIndex(lane, i, v)
			}
		}
		bOn.Step()
		bOff.Step()
		for lane := 0; lane < lanes; lane++ {
			gotRegs, wantRegs := bOn.Registers(lane), bOff.Registers(lane)
			for i := range wantRegs {
				if gotRegs[i] != wantRegs[i] {
					t.Fatalf("cycle %d lane %d: packed reg[%d] = %d, wide %d",
						c, lane, i, gotRegs[i], wantRegs[i])
				}
			}
			for i := range on.Outputs() {
				if got, want := bOn.PeekIndex(lane, i), bOff.PeekIndex(lane, i); got != want {
					t.Fatalf("cycle %d lane %d: packed out[%d] = %d, wide %d", c, lane, i, got, want)
				}
			}
		}
	}
}

// TestTestbenchPortLanePackedPoke is the DMI regression for the packed
// layout: a [Testbench] port bound to a provably-1-bit register of a packed
// batch must peek and poke that register mid-run, with the poke landing in
// the packed word exactly as it lands in a wide batch.
func TestTestbenchPortLanePackedPoke(t *testing.T) {
	on, err := sim.CompileGraph(handshakeGraph())
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 70
	bOn, err := on.NewBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !bOn.Packed() {
		t.Fatal("control design did not pack")
	}
	bOff, err := sim.NewWideBatch(on, lanes)
	if err != nil {
		t.Fatal(err)
	}
	tbOn, tbOff := bOn.Testbench(), bOff.Testbench()
	rng := rand.New(rand.NewSource(91))
	step := func() {
		for lane := 0; lane < lanes; lane++ {
			for i := range on.Inputs() {
				v := rng.Uint64()
				bOn.PokeIndex(lane, i, v)
				bOff.PokeIndex(lane, i, v)
			}
		}
		if err := tbOn.Step(); err != nil {
			t.Fatal(err)
		}
		if err := tbOff.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 10; c++ {
		step()
		if c == 3 || c == 7 {
			// Mid-run register poke on lanes in both packed words.
			for _, lane := range []int{0, 5, 63, 64, 69} {
				pOn, err := tbOn.PortLane("tok", lane)
				if err != nil {
					t.Fatal(err)
				}
				pOff, err := tbOff.PortLane("tok", lane)
				if err != nil {
					t.Fatal(err)
				}
				v := rng.Uint64() & 1
				pOn.Poke(v)
				pOff.Poke(v)
				if got := pOn.Peek(); got != v {
					t.Fatalf("cycle %d lane %d: packed port peek = %d after poke %d", c, lane, got, v)
				}
			}
		}
		for lane := 0; lane < lanes; lane++ {
			gotRegs, wantRegs := bOn.Registers(lane), bOff.Registers(lane)
			for i := range wantRegs {
				if gotRegs[i] != wantRegs[i] {
					t.Fatalf("cycle %d lane %d: packed reg[%d] = %d, wide %d",
						c, lane, i, gotRegs[i], wantRegs[i])
				}
			}
		}
	}
}

// TestPackedBatchPeeksEverySignal: a packing batch recycles the rows of a
// settle's internal values, but every signal a testbench can bind — each
// input, output and register the design's SignalMap resolves — reads the
// same on it as on a batch over the wide schedule, in every lane, after a
// run under random stimulus.
func TestPackedBatchPeeksEverySignal(t *testing.T) {
	const lanes, cycles = 70, 64
	for _, spec := range []gen.Spec{{Family: gen.Ctrl, Cores: 16}, {Family: gen.Rocket, Cores: 1, Scale: 8}} {
		g, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sim.CompileGraph(g, sim.WithBatchWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var tbs [2]*sim.Testbench
		for i, mint := range []func(*sim.Design, int) (*sim.Batch, error){(*sim.Design).NewBatch, sim.NewWideBatch} {
			packing := i == 0
			b, err := mint(d, lanes)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if b.Packed() != packing || b.Workers() != 2 {
				t.Fatalf("%+v: packed %v on %d workers, want %v on 2", spec, b.Packed(), b.Workers(), packing)
			}
			tbs[i] = b.Testbench()
			tbs[i].Drive(sim.RandomStimulus(1))
			if err := tbs[i].Run(cycles); err != nil {
				t.Fatal(err)
			}
		}
		names := tbs[0].Signals()
		if len(names) == 0 {
			t.Fatalf("%+v: no signals", spec)
		}
		for _, name := range names {
			for lane := 0; lane < lanes; lane++ {
				packed, err := tbs[0].PortLane(name, lane)
				if err != nil {
					t.Fatal(err)
				}
				wide, err := tbs[1].PortLane(name, lane)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := packed.Peek(), wide.Peek(); got != want {
					t.Fatalf("%+v: %s %s lane %d peeks %d on the packing batch, %d on the wide one", spec, packed.Kind(), name, lane, got, want)
				}
			}
		}
		t.Logf("%+v: %d signals x %d lanes agree", spec, len(names), lanes)
	}
}
