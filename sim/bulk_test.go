package sim_test

import (
	"strings"
	"testing"

	"rteaal/sim"
)

// TestSessionRunSemantics pins the public bulk-run contract on the counter
// design across every engine shape: pokes land between Run calls, Run(0)
// is a no-op, the cycle counter tracks bulk runs, and a closed session
// reports an error instead of panicking or running.
func TestSessionRunSemantics(t *testing.T) {
	for _, opts := range [][]sim.Option{
		nil,
		{sim.WithKernel(sim.TI)},
		{sim.WithPartitions(2)},
	} {
		d, err := sim.Compile(counterSrc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s := d.NewSession()
		s.Poke("step", 1)
		if err := s.Run(3); err != nil {
			t.Fatal(err)
		}
		s.Poke("step", 2) // mid-run poke: must apply to the next bulk run
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(4); err != nil {
			t.Fatal(err)
		}
		if got := s.PeekReg(0); got != 11 { // 3*1 + 4*2
			t.Fatalf("count = %d after poked bulk runs, want 11", got)
		}
		if got := s.Cycle(); got != 7 {
			t.Fatalf("cycle = %d, want 7", got)
		}
		s.Close()
		if err := s.Run(1); err == nil {
			t.Fatal("Run after Close succeeded")
		}
	}
}

// TestBatchRunSemantics is the batch-engine face of the same contract.
func TestBatchRunSemantics(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBatchParallel(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for lane := 0; lane < 5; lane++ {
		b.Poke(lane, "step", uint64(lane))
	}
	b.Run(3)
	b.Poke(2, "step", 7)
	b.Run(0)
	b.Run(4)
	if got := b.Cycle(); got != 7 {
		t.Fatalf("cycle = %d, want 7", got)
	}
	for lane := 0; lane < 5; lane++ {
		want := uint64(lane * 7)
		if lane == 2 {
			want = 2*3 + 7*4
		}
		if got := b.Registers(lane)[0]; got != want {
			t.Fatalf("lane %d count = %d, want %d", lane, got, want)
		}
	}
}

// TestWaveformTicksPerCycleInBulkRun requires a bulk Run under an active
// waveform to produce exactly the VCD a per-cycle Step loop produces — the
// waveform must sample once per simulated cycle, never once per chunk.
func TestWaveformTicksPerCycleInBulkRun(t *testing.T) {
	capture := func(run func(s *sim.Session) error) string {
		d, err := sim.Compile(counterSrc, sim.WithWaveform())
		if err != nil {
			t.Fatal(err)
		}
		s := d.NewSession()
		defer s.Close()
		var b strings.Builder
		if err := s.EnableWaveform(&b); err != nil {
			t.Fatal(err)
		}
		s.Poke("step", 3)
		if err := run(s); err != nil {
			t.Fatal(err)
		}
		if err := s.CloseWaveform(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	bulk := capture(func(s *sim.Session) error { return s.Run(6) })
	stepped := capture(func(s *sim.Session) error {
		for i := 0; i < 6; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		return nil
	})
	if bulk != stepped {
		t.Fatalf("bulk-run VCD diverges from per-cycle VCD:\n--- bulk ---\n%s\n--- stepped ---\n%s", bulk, stepped)
	}
	if strings.Count(bulk, "#") < 6 {
		t.Fatalf("bulk VCD has fewer timestamps than cycles:\n%s", bulk)
	}
}

// TestTestbenchBulkRunMatchesStep drives the same stimulus through one
// testbench with chunked bulk Runs and another with per-cycle Steps, over
// scalar, partitioned, and batch engines: the stimulus compiled into
// scheduled poke plans must replay bit-identically, across chunk
// boundaries and with transaction helpers mixed in between.
func TestTestbenchBulkRunMatchesStep(t *testing.T) {
	trace := func(tb *sim.Testbench, bulk bool) []uint64 {
		t.Helper()
		tb.Drive(sim.RandomStimulus(42))
		var tr []uint64
		record := func() {
			for lane := 0; lane < tb.Lanes(); lane++ {
				for _, name := range []string{"count"} {
					p, err := tb.PortLane(name, lane)
					if err != nil {
						t.Fatal(err)
					}
					tr = append(tr, p.Peek())
				}
			}
			tr = append(tr, uint64(tb.Cycle()))
		}
		// The last run is long enough to be compiled into several poke
		// plans, which share one buffer.
		for _, k := range []int64{1, 5, 0, 9, 3, 20000} {
			if bulk {
				if err := tb.Run(k); err != nil {
					t.Fatal(err)
				}
			} else {
				for i := int64(0); i < k; i++ {
					if err := tb.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			record()
		}
		// A transaction helper between bulk runs rides on the same engine
		// state the per-cycle path left behind.
		p, err := tb.Port("count")
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Wait(func(uint64) bool { return true }, 4)
		if err != nil {
			t.Fatal(err)
		}
		tr = append(tr, v, uint64(tb.Cycle()))
		return tr
	}
	shapes := []struct {
		name string
		mk   func() (*sim.Testbench, func())
	}{
		{"session", func() (*sim.Testbench, func()) {
			d, err := sim.Compile(counterSrc)
			if err != nil {
				t.Fatal(err)
			}
			s := d.NewSession()
			return s.Testbench(), s.Close
		}},
		{"partitioned", func() (*sim.Testbench, func()) {
			d, err := sim.Compile(counterSrc, sim.WithPartitions(2))
			if err != nil {
				t.Fatal(err)
			}
			s := d.NewSession()
			return s.Testbench(), s.Close
		}},
		{"batch", func() (*sim.Testbench, func()) {
			d, err := sim.Compile(counterSrc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := d.NewBatchParallel(3, 2)
			if err != nil {
				t.Fatal(err)
			}
			return b.Testbench(), b.Close
		}},
	}
	for _, sh := range shapes {
		tbBulk, closeBulk := sh.mk()
		tbStep, closeStep := sh.mk()
		got := trace(tbBulk, true)
		want := trace(tbStep, false)
		closeBulk()
		closeStep()
		if len(got) != len(want) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", sh.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: bulk trace diverges at [%d]: %d != %d", sh.name, i, got[i], want[i])
			}
		}
	}
}
