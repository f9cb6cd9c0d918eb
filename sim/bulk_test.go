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
		d, err := sim.Compile(counterSrc)
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

// handDriven is the reference side of [TestTestbenchBulkRunMatchesStep]: a
// session or batch driven with no testbench at all, so it shares no code with
// the bulk path it checks.
type handDriven struct {
	lanes int
	poke  func(lane, input int, v uint64)
	step  func()
	count func(lane int) uint64 // the design's one output
}

// TestTestbenchBulkRunMatchesStep drives the same stimulus through a
// testbench with chunked bulk Runs and through the bare engine by hand —
// PokeIndex of the stimulus value, then one Step, per cycle — over scalar,
// partitioned, and batch engines: the stimulus compiled into scheduled poke
// plans must replay bit-identically, across chunk boundaries and with a
// port wait mixed in between.
func TestTestbenchBulkRunMatchesStep(t *testing.T) {
	stim := sim.RandomStimulus(42)
	// The last run is long enough to be compiled into several poke plans,
	// which share one buffer.
	runs := []int64{1, 5, 0, 9, 3, 20000}
	bulkTrace := func(tb *sim.Testbench) []uint64 {
		t.Helper()
		tb.Drive(stim)
		var tr []uint64
		for _, k := range runs {
			if err := tb.Run(k); err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < tb.Lanes(); lane++ {
				p, err := tb.PortLane("count", lane)
				if err != nil {
					t.Fatal(err)
				}
				tr = append(tr, p.Peek())
			}
			tr = append(tr, uint64(tb.Cycle()))
		}
		// A wait between bulk runs rides on the same engine state and
		// drives the same stimulus: one more cycle.
		p, err := tb.Port("count")
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Wait(func(uint64) bool { return true }, 4)
		if err != nil {
			t.Fatal(err)
		}
		return append(tr, v, uint64(tb.Cycle()))
	}
	handTrace := func(h handDriven, inputs int) []uint64 {
		var done int64 // completed cycles, counted here rather than asked of the engine
		cycle := func() {
			for lane := 0; lane < h.lanes; lane++ {
				for i := 0; i < inputs; i++ {
					h.poke(lane, i, stim.Value(done, lane, i))
				}
			}
			h.step()
			done++
		}
		var tr []uint64
		for _, k := range runs {
			for i := int64(0); i < k; i++ {
				cycle()
			}
			for lane := 0; lane < h.lanes; lane++ {
				tr = append(tr, h.count(lane))
			}
			tr = append(tr, uint64(done))
		}
		cycle()
		return append(tr, h.count(0), uint64(done))
	}
	session := func(s *sim.Session) handDriven {
		return handDriven{
			lanes: 1,
			poke:  func(_, i int, v uint64) { s.PokeIndex(i, v) },
			step: func() {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			},
			count: func(int) uint64 { return s.PeekIndex(0) },
		}
	}
	for _, sh := range []struct {
		name  string
		lanes int // 0: a session
		opts  []sim.Option
	}{
		{"session", 0, nil},
		{"partitioned", 0, []sim.Option{sim.WithPartitions(2)}},
		{"batch", 3, []sim.Option{sim.WithBatchWorkers(2)}},
	} {
		d, err := sim.Compile(counterSrc, sh.opts...)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []uint64
		if sh.lanes == 0 {
			bulk, ref := d.NewSession(), d.NewSession()
			got, want = bulkTrace(bulk.Testbench()), handTrace(session(ref), len(d.Inputs()))
			bulk.Close()
			ref.Close()
		} else {
			bulk, err := d.NewBatch(sh.lanes)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := d.NewBatch(sh.lanes)
			if err != nil {
				t.Fatal(err)
			}
			got = bulkTrace(bulk.Testbench())
			want = handTrace(handDriven{
				lanes: sh.lanes,
				poke:  ref.PokeIndex,
				step:  ref.Step,
				count: func(lane int) uint64 { return ref.PeekIndex(lane, 0) },
			}, len(d.Inputs()))
			bulk.Close()
			ref.Close()
		}
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
