package testbench

import "testing"

// TestStimuliDeterministic folds 50 cycles of input 0 of lane 0 into an
// 8-bit xor accumulator — what a one-input, one-register design would hold —
// so one number stands for the whole sequence a stimulus produced.
func TestStimuliDeterministic(t *testing.T) {
	run := func(stim Stimulus) uint64 {
		var acc uint64
		for c := int64(0); c < 50; c++ {
			acc = (acc ^ stim.Value(c, 0, 0)) & 0xFF
		}
		return acc
	}
	a := run(Random(7))
	b := run(Random(7))
	if a != b {
		t.Fatalf("random stimulus not deterministic: %d vs %d", a, b)
	}
	if run(Random(7)) == run(Random(8)) {
		t.Fatal("different seeds produced identical traces")
	}
	if got := run(Const(0)); got != 0 {
		t.Fatalf("const-0 stimulus should keep acc 0, got %d", got)
	}
	// Func stimulus sees (cycle, lane, input) coordinates.
	got := run(Func(func(cycle int64, lane, input int) uint64 {
		if lane != 0 || input != 0 {
			t.Fatalf("unexpected coordinates lane=%d input=%d", lane, input)
		}
		return uint64(cycle)
	}))
	want := uint64(0)
	for c := 0; c < 50; c++ {
		want = (want ^ uint64(c)) & 0xFF
	}
	if got != want {
		t.Fatalf("func stimulus acc = %d, want %d", got, want)
	}
}

// TestStimulusOrderIndependence is the property the cross-engine harness
// relies on: the value driven on (cycle, lane, input) does not depend on
// which other coordinates were queried before it.
func TestStimulusOrderIndependence(t *testing.T) {
	s := Random(42)
	a := s.Value(3, 1, 2)
	_ = s.Value(9, 9, 9)
	_ = s.Value(0, 0, 0)
	if got := s.Value(3, 1, 2); got != a {
		t.Fatalf("stimulus value changed across calls: %d vs %d", got, a)
	}
	if s.Value(3, 1, 2) == s.Value(3, 2, 1) {
		t.Fatal("lane/input swap produced identical value (suspicious hash)")
	}
}
