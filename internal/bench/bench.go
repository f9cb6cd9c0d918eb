// Package bench regenerates every table and figure of the paper's
// evaluation (§3 and §7). Each experiment is a function writing the same
// rows/series the paper reports; cmd/rteaal-bench exposes them on the
// command line and bench_test.go exposes them as testing.B benchmarks.
//
// Perf-model experiments synthesise designs at a documented scale factor
// (default 8) with machine caches scaled to match, then extrapolate totals
// back to full size (see internal/perf); compile-cost and static-count
// experiments always use full-size designs.
package bench

import (
	"fmt"
	"sync"

	"rteaal/internal/baseline"
	"rteaal/internal/codegen"
	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/machines"
	"rteaal/internal/oim"
	"rteaal/internal/perf"
)

// Config tunes experiment execution.
type Config struct {
	// Scale divides synthesised design sizes for perf-model runs.
	Scale int
}

// DefaultConfig uses scale 8, which keeps the full suite under a couple of
// minutes while preserving footprint-to-capacity ratios.
func DefaultConfig() Config { return Config{Scale: 8} }

func (c Config) norm() Config {
	if c.Scale < 1 {
		c.Scale = 8
	}
	return c
}

// built caches design pipelines per (spec, scale) within the process.
type built struct {
	graph  *dfg.Graph
	tensor *oim.Tensor
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*built{}
)

// Build synthesises, optimises, levelizes, and tensorises a design spec.
func Build(spec gen.Spec) (*dfg.Graph, *oim.Tensor, error) {
	key := fmt.Sprintf("%s/%d", spec.Name(), spec.Scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if b, ok := cache[key]; ok {
		return b.graph, b.tensor, nil
	}
	g, err := gen.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		return nil, nil, err
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		return nil, nil, err
	}
	t, err := oim.Build(lv)
	if err != nil {
		return nil, nil, err
	}
	cache[key] = &built{graph: opt, tensor: t}
	return opt, t, nil
}

// kernelMetrics models one kernel on one machine for a spec.
func kernelMetrics(spec gen.Spec, kind kernel.Kind, m machines.Machine, opt codegen.OptLevel) (perf.Metrics, error) {
	_, t, err := Build(spec)
	if err != nil {
		return perf.Metrics{}, err
	}
	p, err := codegen.KernelProgram(t, kind, spec.Scale)
	if err != nil {
		return perf.Metrics{}, err
	}
	o := perf.DefaultOptions(spec.SimCycles())
	o.OptLevel = opt
	return perf.Run(p, m, o), nil
}

// baselineMetrics models one baseline style on one machine for a spec.
func baselineMetrics(spec gen.Spec, style baseline.Style, m machines.Machine, opt codegen.OptLevel) (perf.Metrics, error) {
	g, _, err := Build(spec)
	if err != nil {
		return perf.Metrics{}, err
	}
	p, err := codegen.BaselineProgram(g, style, spec.Scale)
	if err != nil {
		return perf.Metrics{}, err
	}
	o := perf.DefaultOptions(spec.SimCycles())
	o.OptLevel = opt
	return perf.Run(p, m, o), nil
}

// kernelProgram builds the codegen program only (compile-cost experiments).
func kernelProgram(spec gen.Spec, kind kernel.Kind) (*codegen.Program, error) {
	_, t, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return codegen.KernelProgram(t, kind, spec.Scale)
}

func baselineProgram(spec gen.Spec, style baseline.Style) (*codegen.Program, error) {
	g, _, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return codegen.BaselineProgram(g, style, spec.Scale)
}

// rockets returns r1..r24 specs at the config's scale.
func rockets(c Config, cores ...int) []gen.Spec {
	specs := make([]gen.Spec, 0, len(cores))
	for _, n := range cores {
		specs = append(specs, gen.Spec{Family: gen.Rocket, Cores: n, Scale: c.Scale})
	}
	return specs
}

func boom(c Config, cores int) gen.Spec {
	return gen.Spec{Family: gen.Boom, Cores: cores, Scale: c.Scale}
}

// mainEvalSpecs is the design set of Figure 20.
func mainEvalSpecs(c Config) []gen.Spec {
	return []gen.Spec{
		{Family: gen.Rocket, Cores: 1, Scale: c.Scale},
		{Family: gen.Rocket, Cores: 4, Scale: c.Scale},
		{Family: gen.Rocket, Cores: 8, Scale: c.Scale},
		{Family: gen.Boom, Cores: 1, Scale: c.Scale},
		{Family: gen.Boom, Cores: 4, Scale: c.Scale},
		{Family: gen.Boom, Cores: 8, Scale: c.Scale},
		{Family: gen.Gemmini, Cores: 8, Scale: c.Scale},
		{Family: gen.Gemmini, Cores: 16, Scale: c.Scale},
		{Family: gen.Gemmini, Cores: 32, Scale: c.Scale},
		{Family: gen.SHA3, Scale: c.Scale},
	}
}
