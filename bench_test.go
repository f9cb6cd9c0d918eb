// Repository-level go test benchmarks: real per-cycle throughput of every
// kernel engine and both baselines, and the ablations the paper discusses
// (identity elision, mux-chain fusion, RepCut thread scaling). The paper's
// tables and figures are not regenerated here; README's "Paper scorecard"
// names the canonical benchmark's metric that answers each of them.
//
// Run everything with: go test -run '^$' -bench=. -benchmem
package main

import (
	"math/rand"
	"testing"

	"rteaal/internal/baseline"
	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
)

// benchScale divides the synthesised design sizes to keep each benchmark
// short.
const benchScale = 16

// buildDesign runs the generator and the compile pipeline up to the OIM
// tensor, returning the optimised graph the baselines take beside it.
func buildDesign(b *testing.B, spec gen.Spec, o dfg.OptOptions) (*dfg.Graph, *oim.Tensor) {
	b.Helper()
	g, err := gen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
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
	return opt, t
}

// benchDesign is the shared benchmark circuit, rocket-1 at benchScale.
func benchDesign(b *testing.B) (*dfg.Graph, *oim.Tensor) {
	return buildDesign(b, gen.Spec{Family: gen.Rocket, Cores: 1, Scale: benchScale}, dfg.DefaultOptOptions())
}

// benchKernelCycle measures the real Go per-cycle simulation throughput of
// one kernel configuration on the scaled rocket-1 design.
func benchKernelCycle(b *testing.B, cfg kernel.Config) {
	_, t := benchDesign(b)
	e, err := newEngine(t, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range t.InputSlots {
		pokeInput(e, i, rng.Uint64())
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

// Ablation: mux-chain operator fusion on/off (cascade-level optimisation).
func benchFusion(b *testing.B, fuse bool) {
	o := dfg.DefaultOptOptions()
	o.MuxChainFuse = fuse
	_, t := buildDesign(b, gen.Spec{Family: gen.Boom, Cores: 1, Scale: benchScale}, o)
	e, err := newEngine(t, kernel.Config{Kind: kernel.PSU})
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
	e, err := newEngine(t, kernel.Config{Kind: kernel.PSU})
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
		pokeInput(pc, i, rng.Uint64())
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
