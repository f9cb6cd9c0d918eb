package sim_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"rteaal/internal/gen"
	"rteaal/sim"
)

// TestPeekRegReadsOneRegister: PeekReg(i) is Registers()[i] without the
// snapshot — on a partitioned session too, where the read has to reach the
// partition owning the register.
func TestPeekRegReadsOneRegister(t *testing.T) {
	src := genDesignSrc(t)
	for name, opts := range map[string][]sim.Option{
		"unpartitioned": nil,
		"partitioned":   {sim.WithPartitions(3)},
	} {
		d, err := sim.Compile(src, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := d.NewSession()
		rng := rand.New(rand.NewSource(11))
		for c := 0; c < 6; c++ {
			for i := range d.Inputs() {
				s.PokeIndex(i, rng.Uint64())
			}
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			for i, want := range s.Registers() {
				if got := s.PeekReg(i); got != want {
					t.Fatalf("%s cycle %d: PeekReg(%d) = %#x, Registers()[%d] = %#x", name, c, i, got, i, want)
				}
			}
		}
		if allocs := testing.AllocsPerRun(50, func() { s.PeekReg(0) }); allocs != 0 {
			t.Errorf("%s: PeekReg allocates %.0f times per call", name, allocs)
		}
		s.Close()
	}
}

// TestWaveformNamesRegistersByDesignName: the VCD declares a generated
// design's registers under the names the design gives them, not reg_<i>.
func TestWaveformNamesRegistersByDesignName(t *testing.T) {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.CompileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	var b strings.Builder
	if err := s.EnableWaveform(&b); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWaveform(); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(b.String(), "$enddefinitions")
	if len(g.Regs) == 0 {
		t.Fatal("generated design has no registers")
	}
	for _, r := range g.Regs {
		if name := g.Nodes[r.Node].Name; !strings.Contains(header, " "+name+" $end") {
			t.Fatalf("register %q is not declared in the VCD header", name)
		}
	}
	if strings.Contains(header, " reg_0 $end") {
		t.Fatal("VCD still declares reg_0 although the design names its registers")
	}
}

// TestWaveformStepReusesSampleBuffer: with a waveform active and nothing
// changing, a cycle allocates nothing — the sample buffer is the session's.
func TestWaveformStepReusesSampleBuffer(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	if err := s.EnableWaveform(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil { // header and first dump
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step with a quiescent waveform allocates %.0f times per cycle", allocs)
	}
}
