package baseline

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
)

func TestBaselinesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Int63()
		it, err := dfg.NewInterp(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, style := range []Style{Verilator, Essent} {
			sim, err := New(opt, style)
			if err != nil {
				t.Fatal(err)
			}
			stim := rand.New(rand.NewSource(seed))
			it.Reset()
			oracleStim := rand.New(rand.NewSource(seed))
			for cyc := 0; cyc < 14; cyc++ {
				for i, p := range opt.Inputs {
					v := stim.Uint64()
					sim.PokeInput(i, v)
					it.PokeInput(i, oracleStim.Uint64()&opt.Node(p.Node).Mask())
				}
				sim.Step()
				it.Step()
				for i := range opt.Outputs {
					if sim.PeekOutput(i) != it.OutputSnapshot()[i] {
						t.Fatalf("trial %d %s cycle %d: output %d = %d, oracle %d",
							trial, sim.Name(), cyc, i, sim.PeekOutput(i), it.OutputSnapshot()[i])
					}
				}
				sr, or := sim.RegSnapshot(), it.RegSnapshot()
				for i := range sr {
					if sr[i] != or[i] {
						t.Fatalf("trial %d %s cycle %d: reg %d diverges", trial, sim.Name(), cyc, i)
					}
				}
			}
		}
	}
}

func TestResetRestoresInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
	sim, err := New(g, Essent)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.RegSnapshot()
	for i := range g.Inputs {
		sim.PokeInput(i, rng.Uint64())
	}
	sim.Step()
	sim.Step()
	sim.Reset()
	got := sim.RegSnapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reg %d = %d after reset, want %d", i, got[i], want[i])
		}
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := &dfg.Graph{}
	g.AddReg("r", 8, 0) // unconnected
	if _, err := New(g, Verilator); err == nil {
		t.Fatal("want error for invalid graph")
	}
}
