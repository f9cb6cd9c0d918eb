package sim_test

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"rteaal/sim"
)

// pairSrc has two registers with independent cones, so it splits into two
// genuinely parallel partitions with an empty cut.
const pairSrc = `
circuit Pair :
  module Pair :
    input clock : Clock
    input step : UInt<4>
    output a : UInt<8>
    output b : UInt<8>
    reg x : UInt<8>, clock
    reg y : UInt<8>, clock
    x <= tail(add(x, pad(step, 8)), 1)
    y <= tail(add(y, UInt<8>(1)), 1)
    a <= x
    b <= y
`

// fullTrace interleaves register state and named outputs for parity checks.
func fullTrace(t *testing.T, s *sim.Session, seed int64, cycles int) []uint64 {
	t.Helper()
	d := s.Design()
	nIn := len(d.Inputs())
	rng := rand.New(rand.NewSource(seed))
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
	return tr
}

// TestPartitionedParityAllKernels is the acceptance property: a design
// compiled with WithPartitions(n) produces registers and outputs
// bit-identical to an unpartitioned session, for every kernel kind and a
// spread of partition counts. (That correctness does not depend on who owns
// which register is internal/repcut's TestEveryStrategyMatchesSequential,
// where an explicit owner vector is reachable.)
func TestPartitionedParityAllKernels(t *testing.T) {
	src := genDesignSrc(t)
	const cycles = 3
	for _, k := range sim.Kernels() {
		base, err := sim.Compile(src, sim.WithKernel(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		golden := fullTrace(t, base.NewSession(), 17, cycles)
		for _, n := range []int{1, 2, 3, 8} {
			d, err := sim.Compile(src, sim.WithKernel(k), sim.WithPartitions(n))
			if err != nil {
				t.Fatalf("%v parts %d: %v", k, n, err)
			}
			s := d.NewSession()
			tr := fullTrace(t, s, 17, cycles)
			s.Close()
			if !slices.Equal(tr, golden) {
				t.Fatalf("%v with %d partitions diverges from sequential", k, n)
			}
		}
	}
}

// TestPartitionedSessionResetAndReuse exercises reuse of one session: reset
// returns a partitioned session to its initial state.
func TestPartitionedSessionResetAndReuse(t *testing.T) {
	d, err := sim.Compile(pairSrc, sim.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	defer s.Close()
	if err := s.Poke("step", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := s.Registers(); got[0] != 15 || got[1] != 5 {
		t.Fatalf("registers = %v, want [15 5]", got)
	}
	// Outputs are sampled at settle, before the commit, so they lag the
	// register state by one cycle — same as an unpartitioned session.
	if a, _ := s.Peek("a"); a != 12 {
		t.Fatalf("a = %d, want 12", a)
	}
	s.Reset()
	if s.Cycle() != 0 {
		t.Fatalf("cycle after reset = %d", s.Cycle())
	}
	if got := s.Registers(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("registers after reset = %v", got)
	}
	// Reuse after reset behaves like a fresh session.
	if err := s.Poke("step", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	if got := s.PeekReg(0); got != 4 {
		t.Fatalf("x after reuse = %d, want 4", got)
	}
}

func TestPartitionStats(t *testing.T) {
	// Unpartitioned design: no stats.
	d, err := sim.Compile(pairSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.PartitionStats(); ok {
		t.Fatal("unpartitioned design reported partition stats")
	}

	// Two independent registers split cleanly: empty cut, no replication.
	d, err = sim.Compile(pairSrc, sim.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := d.PartitionStats()
	if !ok {
		t.Fatal("partitioned design reported no stats")
	}
	if st.Partitions != 2 || st.Requested != 2 {
		t.Fatalf("partitions = %+v, want 2/2", st)
	}
	if st.CutSize != 0 {
		t.Fatalf("independent registers produced cut size %d", st.CutSize)
	}
	if st.ReplicationFactor != 1.0 {
		t.Fatalf("independent registers replicated logic: %f", st.ReplicationFactor)
	}
	if len(st.PartitionOps) != st.Partitions {
		t.Fatalf("per-partition op counts %v for %d partitions", st.PartitionOps, st.Partitions)
	}

	// Requests beyond the register count clamp rather than spinning empty
	// workers.
	d, err = sim.Compile(pairSrc, sim.WithPartitions(64))
	if err != nil {
		t.Fatal(err)
	}
	st, _ = d.PartitionStats()
	if st.Partitions != 2 || st.Requested != 64 {
		t.Fatalf("clamp: got %d/%d, want 2/64", st.Partitions, st.Requested)
	}

	// A coupled design replicates shared logic.
	src := genDesignSrc(t)
	d, err = sim.Compile(src, sim.WithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	st, _ = d.PartitionStats()
	if st.ReplicationFactor < 1.0 {
		t.Fatalf("replication factor %f < 1", st.ReplicationFactor)
	}
	if st.MinPartitionOps > st.MaxPartitionOps {
		t.Fatalf("implausible balance: %+v", st)
	}
}

func TestWithPartitionsRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -2} {
		if _, err := sim.Compile(pairSrc, sim.WithPartitions(n)); err == nil {
			t.Fatalf("WithPartitions(%d) accepted", n)
		}
	}
}

// TestPartitionedSessionRace checks partitioned sessions of one design run
// side by side: 16 goroutines each mint, run, check and close their own
// multi-worker sessions (run under -race in CI), sharing only the design.
func TestPartitionedSessionRace(t *testing.T) {
	d, err := sim.Compile(pairSrc, sim.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 16, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				step := uint64(w%9 + 1)
				cycles := int64(it%4 + 2)
				s := d.NewSession()
				if err := s.Poke("step", step); err != nil {
					t.Error(err)
					return
				}
				if err := s.Run(cycles); err != nil {
					t.Error(err)
					return
				}
				regs := s.Registers()
				if want := (step * uint64(cycles)) & 0xff; regs[0] != want {
					t.Errorf("worker %d iter %d: x = %d, want %d", w, it, regs[0], want)
				}
				if want := uint64(cycles) & 0xff; regs[1] != want {
					t.Errorf("worker %d iter %d: y = %d, want %d", w, it, regs[1], want)
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
}

// TestPartitionedWaveform proves slot reads route to the partition holding
// the authoritative value: VCD capture samples registers and outputs by LI
// coordinate across partition boundaries.
func TestPartitionedWaveform(t *testing.T) {
	d, err := sim.Compile(pairSrc, sim.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	defer s.Close()
	var buf strings.Builder
	if err := s.EnableWaveform(&buf); err != nil {
		t.Fatal(err)
	}
	s.Poke("step", 1)
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWaveform(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "$var wire 8") || strings.Count(out, "#") < 4 {
		t.Fatalf("partitioned waveform capture failed:\n%s", out)
	}
}

// TestPartitionedBatchComposition: one partitioned design still serves the
// batched multi-instance path — threaded single-instance and SoA multi-lane
// simulation compose from one compile.
func TestPartitionedBatchComposition(t *testing.T) {
	d, err := sim.Compile(pairSrc, sim.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	defer s.Close()
	s.Poke("step", 2)
	for l := 0; l < 3; l++ {
		b.PokeIndex(l, 0, 2)
	}
	for c := 0; c < 6; c++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		b.Step()
	}
	want, _ := s.Peek("a")
	for l := 0; l < 3; l++ {
		if got := b.PeekIndex(l, 0); got != want {
			t.Fatalf("lane %d output = %d, want %d", l, got, want)
		}
		if !slices.Equal(b.Registers(l), s.Registers()) {
			t.Fatalf("lane %d registers diverge from partitioned session", l)
		}
	}
}
