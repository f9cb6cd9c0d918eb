package bench

import (
	"strings"
	"testing"

	"rteaal/internal/gen"
)

// smallCfg keeps unit tests fast; the real sweeps run from the repo-level
// benchmarks and cmd/rteaal-bench.
func smallCfg() Config { return Config{Scale: 32} }

func TestBuildCachesAndValidates(t *testing.T) {
	spec := gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 32}
	g1, t1, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	g2, t2, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || t1 != t2 {
		t.Fatal("Build should cache per spec")
	}
	if t1.TotalOps() == 0 {
		t.Fatal("empty tensor")
	}
}

func TestExperimentsRunAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the model suite")
	}
	c := smallCfg()
	cases := []struct {
		name string
		run  func(w *strings.Builder) error
		want []string
	}{
		{"table3", func(w *strings.Builder) error { Table3(w, c); return nil },
			[]string{"sha3", "1200"}},
		{"figure7", func(w *strings.Builder) error { return Figure7(w, c) },
			[]string{"verilator", "essent", "frontend%"}},
		{"figure8", func(w *strings.Builder) error { return Figure8(w, c) },
			[]string{"peak mem"}},
		{"table4", func(w *strings.Builder) error { return Table4(w, c) },
			[]string{"RU", "TI", "size (MB)"}},
		{"table5", func(w *strings.Builder) error { return Table5(w, c) },
			[]string{"IPC"}},
		{"table6", func(w *strings.Builder) error { return Table6(w, c) },
			[]string{"L1I miss"}},
		{"figure15", func(w *strings.Builder) error { return Figure15(w, c) },
			[]string{"PSU"}},
		{"figure16", func(w *strings.Builder) error { return Figure16(w, c) },
			[]string{"IntelXeon", "AWS"}},
		{"figure21", func(w *strings.Builder) error { return Figure21(w, c) },
			[]string{"10.5MB", "ESSENT"}},
		{"table7", func(w *strings.Builder) error { return Table7(w, c) },
			[]string{"verilator", "essent", "PSU"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			if err := tc.run(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q:\n%s", tc.name, want, out)
				}
			}
		})
	}
}

// TestHeadlineShapes asserts the qualitative results the paper reports,
// end-to-end through the bench pipeline at reduced scale.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the model suite")
	}
	c := Config{Scale: 16}
	// Figure 18 ordering at r8 on Xeon: ESSENT < PSU < Verilator.
	spec := gen.Spec{Family: gen.Rocket, Cores: 8, Scale: c.Scale}
	ver, err := baselineMetricsForTest(spec, "verilator")
	if err != nil {
		t.Fatal(err)
	}
	psu, err := kernelMetricsForTest(spec, "PSU")
	if err != nil {
		t.Fatal(err)
	}
	ess, err := baselineMetricsForTest(spec, "essent")
	if err != nil {
		t.Fatal(err)
	}
	if !(ess < psu && psu < ver) {
		t.Errorf("Figure 18 ordering violated: essent=%.1f psu=%.1f verilator=%.1f", ess, psu, ver)
	}
}
