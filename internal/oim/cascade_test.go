package oim_test

import (
	"math/rand"
	"slices"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
)

// The tests in this file simulate a tensor. Cascade 1 — map <-(->) of LI
// over OIM, reduce op_r[n] after map op_u[n] per operand, populate op_s[n]
// for the gathering ops, then the LO → LI write-back per layer — is
// executed as written by the RU kernel (loop order [I,S,N,O,R], one-hot N
// and R ranks read by next()), so RU is the evaluator here.

func build(t *testing.T, g *dfg.Graph) *oim.Tensor {
	t.Helper()
	lv, err := dfg.Levelize(g)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// cascadeTrace runs Cascade 1 over the tensor under seeded stimulus: the
// outputs as settled and the registers as committed, every cycle.
func cascadeTrace(t *testing.T, ten *oim.Tensor, seed int64, cycles int) []uint64 {
	t.Helper()
	prog, err := kernel.NewProgram(ten, kernel.Config{Kind: kernel.RU})
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Instantiate()
	rng := rand.New(rand.NewSource(seed))
	var trace []uint64
	for c := 0; c < cycles; c++ {
		for _, slot := range ten.InputSlots {
			e.PokeSlot(slot, rng.Uint64())
		}
		e.Step()
		for i := range ten.OutputSlots {
			trace = append(trace, e.PeekOutput(i))
		}
		for _, r := range ten.RegSlots {
			trace = append(trace, e.PeekSlot(r.Q))
		}
	}
	return trace
}

// oracleTrace produces the same trace with the dfg interpreter.
func oracleTrace(t *testing.T, g *dfg.Graph, seed int64, cycles int) []uint64 {
	t.Helper()
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var trace []uint64
	for c := 0; c < cycles; c++ {
		for i, p := range g.Inputs {
			it.PokeInput(i, rng.Uint64()&g.Node(p.Node).Mask())
		}
		it.Step()
		trace = append(trace, it.OutputSnapshot()...)
		trace = append(trace, it.RegSnapshot()...)
	}
	return trace
}

// TestCascade1MatchesOracle is the end-to-end validation of the paper's
// formulation: Cascade 1 over the OIM tensor Build makes must reproduce the
// dataflow-graph oracle bit for bit.
func TestCascade1MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		ten := build(t, opt)
		seed := rng.Int63()
		want := oracleTrace(t, opt, seed, 12)
		if got := cascadeTrace(t, ten, seed, 12); !slices.Equal(got, want) {
			t.Fatalf("trial %d: cascade trace diverges from the oracle", trial)
		}
	}
}
