// Repository-level benchmarks: one per paper table and figure (regenerating
// the experiment through the model pipeline), real-throughput benchmarks of
// every kernel engine and both baselines, and the ablation benches DESIGN.md
// calls out (format compression, identity elision, mux-chain fusion, RepCut
// thread scaling).
//
// Run everything with: go test -bench=. -benchmem
package main

import (
	"io"
	"math/rand"
	"testing"

	"rteaal/internal/baseline"
	"rteaal/internal/bench"
	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
)

// benchCfg trades fidelity for time; cmd/rteaal-bench defaults to scale 8.
var benchCfg = bench.Config{Scale: 16}

func runExp(b *testing.B, f func(w io.Writer, c bench.Config) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := f(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(io.Discard, benchCfg)
	}
}

func BenchmarkFigure7(b *testing.B)  { runExp(b, bench.Figure7) }
func BenchmarkFigure8(b *testing.B)  { runExp(b, bench.Figure8) }
func BenchmarkTable4(b *testing.B)   { runExp(b, bench.Table4) }
func BenchmarkTable5(b *testing.B)   { runExp(b, bench.Table5) }
func BenchmarkTable6(b *testing.B)   { runExp(b, bench.Table6) }
func BenchmarkFigure15(b *testing.B) { runExp(b, bench.Figure15) }
func BenchmarkFigure16(b *testing.B) { runExp(b, bench.Figure16) }
func BenchmarkFigure17(b *testing.B) { runExp(b, bench.Figure17) }
func BenchmarkFigure18(b *testing.B) { runExp(b, bench.Figure18) }
func BenchmarkFigure19(b *testing.B) { runExp(b, bench.Figure19) }
func BenchmarkFigure20(b *testing.B) { runExp(b, bench.Figure20) }
func BenchmarkFigure21(b *testing.B) { runExp(b, bench.Figure21) }
func BenchmarkTable7(b *testing.B)   { runExp(b, bench.Table7) }

// benchDesign builds the shared benchmark circuit once.
func benchDesign(b *testing.B) (*dfg.Graph, *oim.Tensor) {
	b.Helper()
	g, t, err := bench.Build(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: benchCfg.Scale})
	if err != nil {
		b.Fatal(err)
	}
	return g, t
}

// benchKernelCycle measures the real Go per-cycle simulation throughput of
// one kernel configuration on the scaled rocket-1 design.
func benchKernelCycle(b *testing.B, cfg kernel.Config) {
	_, t := benchDesign(b)
	e, err := kernel.New(t, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range t.InputSlots {
		e.PokeInput(i, rng.Uint64())
	}
	b.ReportMetric(float64(t.TotalOps()), "ops/cycle")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkKernelRU(b *testing.B)  { benchKernelCycle(b, kernel.Config{Kind: kernel.RU}) }
func BenchmarkKernelOU(b *testing.B)  { benchKernelCycle(b, kernel.Config{Kind: kernel.OU}) }
func BenchmarkKernelNU(b *testing.B)  { benchKernelCycle(b, kernel.Config{Kind: kernel.NU}) }
func BenchmarkKernelPSU(b *testing.B) { benchKernelCycle(b, kernel.Config{Kind: kernel.PSU}) }
func BenchmarkKernelIU(b *testing.B)  { benchKernelCycle(b, kernel.Config{Kind: kernel.IU}) }
func BenchmarkKernelSU(b *testing.B)  { benchKernelCycle(b, kernel.Config{Kind: kernel.SU}) }
func BenchmarkKernelTI(b *testing.B)  { benchKernelCycle(b, kernel.Config{Kind: kernel.TI}) }

func benchBaselineCycle(b *testing.B, style baseline.Style) {
	g, _ := benchDesign(b)
	sim, err := baseline.New(g, style)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range g.Inputs {
		sim.PokeInput(i, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkBaselineVerilatorStyle(b *testing.B) { benchBaselineCycle(b, baseline.Verilator) }
func BenchmarkBaselineEssentStyle(b *testing.B)    { benchBaselineCycle(b, baseline.Essent) }

// Ablation: Figure 12a's unoptimized format vs the optimized format, on the
// kernels whose loops consult the payload arrays.
func BenchmarkAblationFormatOptimized(b *testing.B) {
	benchKernelCycle(b, kernel.Config{Kind: kernel.RU})
}

func BenchmarkAblationFormatUnoptimized(b *testing.B) {
	benchKernelCycle(b, kernel.Config{Kind: kernel.RU, UnoptimizedFormat: true})
}

// Ablation: mux-chain operator fusion on/off (cascade-level optimisation).
func benchFusion(b *testing.B, fuse bool) {
	g, err := gen.Generate(gen.Spec{Family: gen.Boom, Cores: 1, Scale: benchCfg.Scale})
	if err != nil {
		b.Fatal(err)
	}
	o := dfg.DefaultOptOptions()
	o.MuxChainFuse = fuse
	opt, err := dfg.Optimize(g, o)
	if err != nil {
		b.Fatal(err)
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		b.Fatal(err)
	}
	t, err := oim.Build(lv)
	if err != nil {
		b.Fatal(err)
	}
	e, err := kernel.New(t, kernel.Config{Kind: kernel.PSU})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(t.TotalOps()), "ops/cycle")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkAblationFusionOn(b *testing.B)  { benchFusion(b, true) }
func BenchmarkAblationFusionOff(b *testing.B) { benchFusion(b, false) }

// Ablation: identity elision. Elision is structural (coordinate
// assignment), so the "off" variant measures the einsum-level cost of the
// identity copies the cascade would otherwise perform: one extra copy per
// carried value per layer, executed here as an explicit pass.
func BenchmarkAblationIdentityElided(b *testing.B) {
	benchKernelCycle(b, kernel.Config{Kind: kernel.PSU})
}

func BenchmarkAblationIdentityExplicit(b *testing.B) {
	_, t := benchDesign(b)
	e, err := kernel.New(t, kernel.Config{Kind: kernel.PSU})
	if err != nil {
		b.Fatal(err)
	}
	// Identity work proportional to the Table 1 accounting, scaled to the
	// synthesised size.
	identPerCycle := int(t.IdentityOps)
	buf := make([]uint64, t.NumSlots)
	b.ReportMetric(float64(identPerCycle), "identities/cycle")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		k := 0
		for j := 0; j < identPerCycle; j++ {
			buf[k] = buf[len(buf)-1-k] // the copy an identity op performs
			k++
			if k >= len(buf)/2 {
				k = 0
			}
		}
	}
}

// Ablation: RepCut thread scaling (1..8 partitions on the rocket design).
func benchRepCut(b *testing.B, parts int) {
	_, t := benchDesign(b)
	plan, err := repcut.NewPlan(t, parts, nil)
	if err != nil {
		b.Fatal(err)
	}
	progs, err := plan.Lower(kernel.Config{Kind: kernel.PSU})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := plan.Instantiate(progs)
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	rng := rand.New(rand.NewSource(1))
	for i := range t.InputSlots {
		pc.PokeInput(i, rng.Uint64())
	}
	b.ReportMetric(plan.Stats().ReplicationFactor, "replication")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Step()
	}
}

func BenchmarkRepCutThreads1(b *testing.B) { benchRepCut(b, 1) }
func BenchmarkRepCutThreads2(b *testing.B) { benchRepCut(b, 2) }
func BenchmarkRepCutThreads4(b *testing.B) { benchRepCut(b, 4) }
func BenchmarkRepCutThreads8(b *testing.B) { benchRepCut(b, 8) }
