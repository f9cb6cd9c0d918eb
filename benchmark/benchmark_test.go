package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("iqrFrac = %v, want (4.5-1.5)/3 = 1", got)
	}
	if got := iqrFrac([]float64{7}); got != 0 {
		t.Errorf("iqrFrac of one sample = %v, want 0", got)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000..1, unsorted on purpose
	}
	got, err := percentile(xs, 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond it", got, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has nine beyond it: want a refusal")
	}
	if _, err := percentile(xs[:5], 0.5); err == nil {
		t.Error("p50 of 5 samples has two beyond it: want a refusal")
	}
}

func TestDigestIsFNV64aOverLittleEndianWords(t *testing.T) {
	values := []uint64{0, 1, 0xdeadbeefcafef00d, math.MaxUint64}
	d := newDigest()
	ref := fnv.New64a()
	for _, v := range values {
		d.fold(v)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		ref.Write(b[:])
	}
	if d.h != ref.Sum64() {
		t.Errorf("digest %016x, hash/fnv says %016x", d.h, ref.Sum64())
	}
	again, swapped := newDigest(), newDigest()
	for i, v := range values {
		again.fold(v)
		swapped.fold(values[len(values)-1-i])
	}
	if again.String() != d.String() {
		t.Error("the same values folded twice gave two digests")
	}
	if swapped.String() == d.String() {
		t.Error("folding in another order gave the same digest")
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a by 10
		{Name: "c", Start: 70, End: 80, Parent: 0},
		{Name: "leaf", Start: 72, End: 78, Parent: 3},
	}
	want := []int64{100 - (20 + 20 + 10), 20, 30, 4, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsParentsAndNilRecordsNothing(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("root", -1)
	if _, err := tr.timed("child", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Workload != "w" {
		t.Errorf("spans = %+v", tr.spans)
	}
	if s := tr.spans[0]; s.End < tr.spans[1].End || s.Start > tr.spans[1].Start {
		t.Errorf("root %+v does not contain child %+v", s, tr.spans[1])
	}
	var off *tracer
	off.end(off.begin("x", -1)) // must not panic
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contractPath := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w", "why": "test"}},
		"end_to_end": []map[string]any{
			{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.1},
		},
	})
	record := func(rate, lat float64, failed int64) []result {
		return []result{{Workload: "w", Attempted: 100, Failed: failed, TraceDigest: "d", Metrics: map[string]metric{
			"rate":  {Value: rate, Unit: "1/s", Spread: 0.01},
			"lat":   {Value: lat, Unit: "ms", Spread: 0.01},
			"noisy": {Value: 1, Unit: "ms", Spread: 0.5},
		}}}
	}
	base := write("a.json", record(100, 10, 0))
	for _, tc := range []struct {
		name      string
		b         []result
		wantWorse bool
		wantRows  []string
	}{
		{"same", record(100, 10, 0), false, []string{"rate", "ok", "unresolved"}},
		{"faster is not worse", record(150, 5, 0), false, []string{"-50.00%"}},
		{"rate fell beyond the bound", record(85, 10, 0), true, []string{"+15.00%", "worse"}},
		{"latency rose beyond the bound", record(100, 12, 0), true, []string{"+20.00%", "worse"}},
		{"within the bound", record(95, 10.5, 0), false, []string{"+5.00%"}},
		{"a new failure", record(100, 10, 1), true, []string{"failed_frac", "worse"}},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, contractPath, base, write("b.json", tc.b))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if worse != tc.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, worse, tc.wantWorse, out.String())
		}
		for _, row := range tc.wantRows {
			if !strings.Contains(out.String(), row) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, row, out.String())
			}
		}
	}
}

// TestSmokeEveryWorkloadEmitsTheContractsMetrics runs all five workloads at a
// tiny size, untraced and traced, and holds the emitted names and units to
// BENCHMARK.json — so renaming an API the benchmark calls, or a metric,
// breaks tier-1 rather than the next measurement.
func TestSmokeEveryWorkloadEmitsTheContractsMetrics(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range c.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, have)
	}
	for i, w := range c.Workloads {
		if w.Why != workloads[i].why {
			t.Errorf("%s: BENCHMARK.json's why differs from the program's", w.Name)
		}
	}

	tiny := sizing{scaleMul: 64, seconds: 0.05, windows: 1, setupRepeats: 1, refCycles: 64, compileRepeats: 1,
		probeSeconds: 0.005, probeReps: 5, bulkCycles: 256, repcutOpsCap: 30000}
	check := func(t *testing.T, res *result, want []contractMetric) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
		}
		got := emitted(res)
		if len(got) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
		}
		for _, m := range want {
			v, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s is declared but not emitted", m.Name)
			case v.Unit != m.Unit:
				t.Errorf("%s has unit %q, declared %q", m.Name, v.Unit, m.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s = %v", m.Name, v.Value)
			}
		}
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			// One traced run computes both sets; what an untraced run would
			// emit is the same result with the trace flag off.
			tr := newTracer(w.name)
			traced, err := runWorkload(w, tiny, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, c.PerLayer)
			untraced := *traced
			untraced.Trace = false
			check(t, &untraced, c.EndToEnd)
			for _, m := range c.EndToEnd {
				if traced.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", m.Name, traced.Metrics[m.Name].Value)
				}
			}
			names := map[string]bool{}
			for _, s := range tr.spans {
				names[s.Name] = true
				if s.End < s.Start || s.Workload != w.name {
					t.Fatalf("bad span %+v", s)
				}
			}
			for _, n := range []string{w.name, "setup", "run", "window", "compile", "firrtl.parse", "sim.compile", "client.do", "server.exec"} {
				if !names[n] {
					t.Errorf("no %q span recorded", n)
				}
			}
		})
	}
}

func TestGoldenAppliesOnlyToItsSeedAndWindow(t *testing.T) {
	if parallelism() != 2 {
		t.Skip("golden.json was taken at P = 2")
	}
	for _, w := range workloads {
		d, err := goldenDigest(w.name, 1, w.windowWork())
		if err != nil || len(d) != 16 {
			t.Errorf("%s at seed 1: digest %q, %v", w.name, d, err)
		}
		if d, _ := goldenDigest(w.name, 2, w.windowWork()); d != "" {
			t.Errorf("%s at seed 2: want no golden digest, got %q", w.name, d)
		}
		if d, _ := goldenDigest(w.name, 1, w.windowWork()+1); d != "" {
			t.Errorf("%s at another window size: want no golden digest, got %q", w.name, d)
		}
	}
}
