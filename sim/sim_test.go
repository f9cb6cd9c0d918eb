package sim_test

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/sim"
)

const counterSrc = `
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input step : UInt<4>
    output count : UInt<8>
    regreset c : UInt<8>, clock, reset, UInt<8>(0)
    c <= tail(add(c, pad(step, 8)), 1)
    count <= c
`

func TestCompileAndRunAllKernels(t *testing.T) {
	for _, k := range sim.Kernels() {
		d, err := sim.Compile(counterSrc, sim.WithKernel(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := d.Kernel(); got != k {
			t.Fatalf("Kernel() = %v, want %v", got, k)
		}
		s := d.NewSession()
		if err := s.Poke("step", 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		if got := s.PeekReg(0); got != 20 {
			t.Fatalf("%v: count = %d, want 20", k, got)
		}
		if s.Cycle() != 10 {
			t.Fatalf("cycle = %d", s.Cycle())
		}
		s.Reset()
		if got := s.PeekReg(0); got != 0 {
			t.Fatalf("%v: after reset = %d", k, got)
		}
	}
}

// genDesignSrc synthesises a nontrivial circuit and round-trips it through
// FIRRTL text, the external interchange format.
func genDesignSrc(t *testing.T) string {
	t.Helper()
	g, err := gen.Generate(gen.Spec{Family: gen.SHA3, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := firrtl.Emit(g)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// sessionTrace drives a session with seeded random stimulus and returns the
// register trace.
func sessionTrace(t *testing.T, s *sim.Session, seed int64, cycles, inputs int) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tr []uint64
	for c := 0; c < cycles; c++ {
		for i := 0; i < inputs; i++ {
			s.PokeIndex(i, rng.Uint64())
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		tr = append(tr, s.Registers()...)
	}
	return tr
}

// TestKernelGoldenTraceParity asserts all seven kernels produce
// bit-identical output and register sequences through the public session
// API on a generated design.
func TestKernelGoldenTraceParity(t *testing.T) {
	src := genDesignSrc(t)
	const cycles = 4
	var golden []uint64
	var goldenKernel sim.Kernel
	for _, k := range sim.Kernels() {
		d, err := sim.Compile(src, sim.WithKernel(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		nIn := len(d.Inputs())
		// Interleave register state and named outputs into one trace.
		rng := rand.New(rand.NewSource(11))
		s := d.NewSession()
		var tr []uint64
		for c := 0; c < cycles; c++ {
			for i := 0; i < nIn; i++ {
				s.PokeIndex(i, rng.Uint64())
			}
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			tr = append(tr, s.Registers()...)
			for _, name := range d.Outputs() {
				v, err := s.Peek(name)
				if err != nil {
					t.Fatal(err)
				}
				tr = append(tr, v)
			}
		}
		if golden == nil {
			golden, goldenKernel = tr, k
			continue
		}
		if len(tr) != len(golden) {
			t.Fatalf("%v: trace length %d, want %d", k, len(tr), len(golden))
		}
		for i := range golden {
			if tr[i] != golden[i] {
				t.Fatalf("%v diverges from %v at trace[%d]: %d != %d",
					k, goldenKernel, i, tr[i], golden[i])
			}
		}
	}
}

// TestSessionsAreIndependent pokes two sessions of one design with
// different stimuli and checks each matches a dedicated fresh session fed
// the same stimulus — i.e. sessions share the compiled tensor but no state.
func TestSessionsAreIndependent(t *testing.T) {
	src := genDesignSrc(t)
	d, err := sim.Compile(src, sim.WithKernel(sim.PSU))
	if err != nil {
		t.Fatal(err)
	}
	nIn := len(d.Inputs())
	const cycles = 5

	// Interleaved: both sessions advance cycle by cycle, so any shared
	// state would cross-contaminate.
	a, b := d.NewSession(), d.NewSession()
	rngA := rand.New(rand.NewSource(100))
	rngB := rand.New(rand.NewSource(200))
	var trA, trB []uint64
	for c := 0; c < cycles; c++ {
		for i := 0; i < nIn; i++ {
			a.PokeIndex(i, rngA.Uint64())
			b.PokeIndex(i, rngB.Uint64())
		}
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		trA = append(trA, a.Registers()...)
		trB = append(trB, b.Registers()...)
	}

	wantA := sessionTrace(t, d.NewSession(), 100, cycles, nIn)
	wantB := sessionTrace(t, d.NewSession(), 200, cycles, nIn)
	for i := range wantA {
		if trA[i] != wantA[i] {
			t.Fatalf("session A contaminated at trace[%d]: %d != %d", i, trA[i], wantA[i])
		}
		if trB[i] != wantB[i] {
			t.Fatalf("session B contaminated at trace[%d]: %d != %d", i, trB[i], wantB[i])
		}
	}
	same := true
	for i := range trA {
		if trA[i] != trB[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different stimuli produced identical traces; sessions are not independent")
	}
}

func TestPortErrors(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	if err := s.Poke("bogus", 1); err == nil {
		t.Error("poke of unknown input accepted")
	}
	if _, err := s.Peek("bogus"); err == nil {
		t.Error("peek of unknown output accepted")
	}
}

func TestWaveformCapture(t *testing.T) {
	d, err := sim.Compile(counterSrc, sim.WithKernel(sim.TI))
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	var b strings.Builder
	if err := s.EnableWaveform(&b); err != nil {
		t.Fatal(err)
	}
	s.Poke("step", 1)
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWaveform(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "$var wire 8") || !strings.Contains(out, "count") {
		t.Fatalf("waveform missing signals:\n%s", out)
	}
	// The counter changes every cycle, so several timestamps must appear.
	if strings.Count(out, "#") < 4 {
		t.Fatalf("too few samples:\n%s", out)
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := sim.Compile("not firrtl at all"); err == nil {
		t.Fatal("want parse error")
	}
}

// TestUnoptimizedGraphParity: a graph lowered with no dfg pass at all (the
// optimisation ablation, reached below sim: dfg.Levelize → oim.Build →
// kernel.NewProgram) simulates exactly like the design sim.Compile builds
// with the default passes, and is no smaller.
func TestUnoptimizedGraphParity(t *testing.T) {
	g, err := firrtl.ParseAndElaborate(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog := unoptimizedProgram(t, g)
	dOpt, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	ten := prog.Tensor()
	if ten.TotalOps() < dOpt.Stats().Ops {
		t.Fatalf("unoptimized design smaller than optimized: %d < %d", ten.TotalOps(), dOpt.Stats().Ops)
	}
	e, sOpt := prog.Instantiate(), dOpt.NewSession()
	e.PokeSlot(ten.InputSlots[slices.Index(ten.InputNames, "step")], 3)
	sOpt.Poke("step", 3)
	count := slices.Index(ten.OutputNames, "count")
	for c := 0; c < 8; c++ {
		e.Step()
		sOpt.Step()
		a := e.PeekOutput(count)
		if b, _ := sOpt.Peek("count"); a != b {
			t.Fatalf("cycle %d: unoptimized %d != optimized %d", c, a, b)
		}
	}
}

// TestKernelEnumMatchesInternal guards against drift between the public
// Kernel constants and internal/kernel's kinds.
func TestKernelEnumMatchesInternal(t *testing.T) {
	ks := sim.Kernels()
	kinds := kernel.Kinds()
	if len(ks) != len(kinds) {
		t.Fatalf("sim.Kernels() has %d entries, kernel.Kinds() %d", len(ks), len(kinds))
	}
	for i, k := range ks {
		if k.String() != kinds[i].String() {
			t.Fatalf("kernel %d: sim %q != internal %q", i, k, kinds[i])
		}
		parsed, err := sim.ParseKernel(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != k {
			t.Fatalf("ParseKernel(%q) = %v, want %v", k, parsed, k)
		}
	}
	if _, err := sim.ParseKernel("XX"); err == nil {
		t.Fatal("ParseKernel accepted garbage")
	}
}

func TestDesignAccessors(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "Counter" {
		t.Fatalf("Name() = %q", d.Name())
	}
	st := d.Stats()
	if st.Registers != 1 || st.Ops == 0 || st.Layers == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	ins, outs := d.Inputs(), d.Outputs()
	if len(ins) != st.Inputs || len(outs) != st.Outputs {
		t.Fatalf("port lists disagree with stats: %v %v vs %+v", ins, outs, st)
	}
	var buf strings.Builder
	if err := d.WriteOIM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Counter") {
		t.Fatal("WriteOIM output missing design name")
	}
}

// TestDesignRetainedHeap bounds what a compiled design keeps live against the
// size of its source: a [sim.Design] holds the OIM tensor as flat run-length
// arrays, what its kernel derives from them and one sorted name table, and
// nothing the compiler only passed through or per operation. A field that
// pins the dataflow graph (Design.graph did: 4.5× the source on this design)
// or an object per operation (oim.Op with its own operand slice did: 1.6×,
// and 3.6× under WithPartitions(2), which kept a second copy per cone) fails
// here instead of in a benchmark run, and so does a slice header and a block
// per slot (repcut.Plan's poke routing was one: 1.72×, 1.88× under -race,
// which pads small blocks; 1.17× as two flat arrays; gone now that every
// partition gets every poke). Measured: 0.53× and 0.92×, with or without
// -race.
func TestDesignRetainedHeap(t *testing.T) {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := firrtl.Emit(g)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, row := range []struct {
		name string
		opts []sim.Option
		bar  float64
	}{
		{"unpartitioned", nil, 1.0},
		{"two partitions", []sim.Option{sim.WithPartitions(2)}, 1.1},
	} {
		before := heap()
		d, err := sim.Compile(src, row.opts...)
		if err != nil {
			t.Fatal(err)
		}
		retained := float64(int64(heap()-before)) / float64(len(src))
		runtime.KeepAlive(d)
		t.Logf("%s: design retains %.2f× its %d-byte source", row.name, retained, len(src))
		if retained > row.bar {
			t.Errorf("%s: design retains %.2f× its source, want at most %.1f×", row.name, retained, row.bar)
		}
	}
}
