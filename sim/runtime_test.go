package sim_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rteaal/internal/kernel"
	"rteaal/sim"
)

// panicOf runs f and returns what it panicked with, nil if it returned.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestUseAfterClose is the one rule for engines with resident workers: the
// calls that can say so return the session's "used after Close" error, and
// the ones that cannot panic with the worker group's single message — never
// with a raw "send on closed channel".
func TestUseAfterClose(t *testing.T) {
	const groupMsg = "kernel: workers used after Close"
	d, err := sim.Compile(genDesignSrc(t), sim.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := d.PartitionStats(); !ok || st.Partitions != 2 {
		t.Fatalf("want a 2-partition design, got %+v", st)
	}
	for _, tc := range []struct {
		name      string
		call      func(s *sim.Session, b *sim.Batch) error
		wantErr   bool   // the session call answers with the closed error
		wantPanic string // the call panics with exactly this
	}{
		{"session/Step", func(s *sim.Session, _ *sim.Batch) error { return s.Step() }, true, ""},
		{"session/Run", func(s *sim.Session, _ *sim.Batch) error { return s.Run(3) }, true, ""},
		{"session/Settle", func(s *sim.Session, _ *sim.Batch) error { s.Settle(); return nil }, false, groupMsg},
		{"batch/Step", func(_ *sim.Session, b *sim.Batch) error { b.Step(); return nil }, false, groupMsg},
		{"batch/Run", func(_ *sim.Session, b *sim.Batch) error { b.Run(3); return nil }, false, groupMsg},
		{"batch/Settle", func(_ *sim.Session, b *sim.Batch) error { b.Settle(); return nil }, false, groupMsg},
	} {
		s := d.NewSession()
		b, err := d.NewBatchParallel(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.call(s, b); err != nil { // live: every call works
			t.Fatalf("%s before Close: %v", tc.name, err)
		}
		s.Close()
		b.Close()
		var got error
		p := panicOf(func() { got = tc.call(s, b) })
		switch {
		case tc.wantPanic != "":
			if p != tc.wantPanic {
				t.Errorf("%s after Close panicked with %v, want %q", tc.name, p, tc.wantPanic)
			}
		case p != nil:
			t.Errorf("%s after Close panicked with %v, want an error", tc.name, p)
		case tc.wantErr && (got == nil || got.Error() != "sim: session used after Close"):
			t.Errorf("%s after Close returned %v", tc.name, got)
		}
	}
}

// TestWaveformTestbenchMatchesPlainSession: a recording session runs the
// same bulk loop as a plain one — stimulus plans, a Port.Wait watch and a
// cancellation probe behave identically (same values, same errors, same
// Cycle() after every stage) — and the VCD ticks once per completed cycle.
func TestWaveformTestbenchMatchesPlainSession(t *testing.T) {
	type stage struct {
		cycle int64
		val   uint64
		err   error
	}
	script := func(s *sim.Session) []stage {
		t.Helper()
		tb := s.Testbench()
		tb.Drive(sim.StimulusFunc(func(cycle int64, _, input int) uint64 {
			if input == 0 { // reset
				return 0
			}
			return uint64(1 + cycle%3)
		}))
		count, err := tb.Port("count")
		if err != nil {
			t.Fatal(err)
		}
		var out []stage
		note := func(v uint64, err error) { out = append(out, stage{tb.Cycle(), v, err}) }
		note(0, tb.Run(10))
		note(count.Wait(func(v uint64) bool { return v >= 40 }, 100)) // watch accepts mid-run
		note(count.Wait(func(v uint64) bool { return v > 255 }, 7))   // never: timeout after 7
		polls := 0
		tb.SetCancel(func() bool { polls++; return polls > 2 })
		note(0, tb.Run(5*kernel.CancelCheckCycles)) // cancelled at the second chunk boundary
		tb.SetCancel(nil)
		note(0, tb.Run(3))
		return out
	}

	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := script(d.NewSession())

	wave := d.NewSession()
	var vcd strings.Builder
	if err := wave.EnableWaveform(&vcd); err != nil {
		t.Fatal(err)
	}
	got := script(wave)
	if err := wave.CloseWaveform(); err != nil {
		t.Fatal(err)
	}

	for i := range want {
		w, g := want[i], got[i]
		if g.cycle != w.cycle || g.val != w.val || fmt.Sprint(g.err) != fmt.Sprint(w.err) {
			t.Fatalf("stage %d: waveform session {cycle %d, value %d, err %v}, plain session {cycle %d, value %d, err %v}",
				i, g.cycle, g.val, g.err, w.cycle, w.val, w.err)
		}
	}
	if !errors.Is(want[3].err, sim.ErrRunCanceled) || want[3].cycle-want[2].cycle != 2*kernel.CancelCheckCycles {
		t.Fatalf("cancel stage: %+v after %+v, want ErrRunCanceled two chunks in", want[3], want[2])
	}
	if want[1].err != nil || want[1].val < 40 || want[2].err == nil {
		t.Fatalf("wait stages: accept %+v, timeout %+v", want[1], want[2])
	}
	// The writer stamps its sample count when it closes: one per cycle.
	lines := strings.Fields(vcd.String())
	if last, wantLast := lines[len(lines)-1], fmt.Sprintf("#%d", wave.Cycle()); last != wantLast {
		t.Fatalf("VCD closes at %s after %d cycles, want %s", last, wave.Cycle(), wantLast)
	}
}

// failAfter is an io.Writer that accepts n bytes and then fails for good.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestWaveformWriteErrorSticks pins the write-error rule of a bulk run: the
// error does not cut the run short — every requested cycle is simulated and
// counted — it sticks and is returned when the run does, and by every
// Step and Run after it.
func TestWaveformWriteErrorSticks(t *testing.T) {
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	if err := s.EnableWaveform(&failAfter{n: 400}); err != nil { // header fits, ~10 samples do
		t.Fatal(err)
	}
	s.Poke("step", 1)
	if err := s.Run(5); err != nil {
		t.Fatalf("run inside the writer's budget: %v", err)
	}
	if err := s.Run(200); !errors.Is(err, errDiskFull) {
		t.Fatalf("Run over a failing writer returned %v, want the write error", err)
	}
	if got := s.Cycle(); got != 205 {
		t.Fatalf("Cycle() = %d after the failed run, want all 205", got)
	}
	if got := s.PeekReg(0); got != 205 {
		t.Fatalf("count = %d, want 205: the simulation must not stop at the write error", got)
	}
	if err := s.Step(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Step after the write error returned %v", err)
	}
	if err := s.CloseWaveform(); !errors.Is(err, errDiskFull) {
		t.Fatalf("CloseWaveform returned %v", err)
	}
}
