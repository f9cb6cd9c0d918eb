package bench

import (
	"fmt"
	"io"

	"rteaal/internal/baseline"
	"rteaal/internal/codegen"
	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/machines"
	"rteaal/internal/perf"
)

// Table1 reproduces the identity-vs-effectual operation accounting. It uses
// full-size designs (static analysis only).
func Table1(w io.Writer, c Config) error {
	fmt.Fprintln(w, "Table 1: required identity operations (before elision)")
	fmt.Fprintf(w, "%-12s %16s %16s %8s\n", "design", "effectual", "identity", "ratio")
	for _, spec := range []gen.Spec{
		{Family: gen.Rocket, Cores: 1, Scale: 1},
		{Family: gen.Boom, Cores: 1, Scale: 1},
		{Family: gen.Rocket, Cores: 8, Scale: 1},
		{Family: gen.Boom, Cores: 8, Scale: 1},
	} {
		g, err := gen.Generate(spec)
		if err != nil {
			return err
		}
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			return err
		}
		lv, err := dfg.Levelize(opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %16d %16d %7.1fx\n",
			spec.Name(), lv.EffectualOps, lv.IdentityOps,
			float64(lv.IdentityOps)/float64(lv.EffectualOps))
	}
	return nil
}

// Table3 reproduces the workload cycle counts.
func Table3(w io.Writer, c Config) {
	fmt.Fprintln(w, "Table 3: simulation cycles per design")
	fmt.Fprintf(w, "%-12s %12s\n", "design", "cycles (K)")
	for _, spec := range []gen.Spec{
		{Family: gen.Rocket, Cores: 1},
		{Family: gen.Boom, Cores: 1},
		{Family: gen.Gemmini, Cores: 8},
		{Family: gen.Gemmini, Cores: 16},
		{Family: gen.Gemmini, Cores: 32},
		{Family: gen.SHA3},
	} {
		fmt.Fprintf(w, "%-12s %12d\n", spec.Name(), spec.SimCycles()/1000)
	}
}

// Figure7 reproduces the top-down comparison of Verilator and ESSENT on the
// Graviton host for 1-12-core Rockets and SmallBOOMs.
func Figure7(w io.Writer, c Config) error {
	c = c.norm()
	m := machines.Graviton()
	fmt.Fprintln(w, "Figure 7: top-down breakdown, Verilator vs ESSENT (AWS Graviton 4)")
	fmt.Fprintf(w, "%-10s %-10s %10s %10s %10s\n", "design", "simulator", "frontend%", "badspec%", "others%")
	specs := []gen.Spec{}
	for _, n := range []int{1, 4, 8, 12} {
		specs = append(specs,
			gen.Spec{Family: gen.Rocket, Cores: n, Scale: c.Scale},
			gen.Spec{Family: gen.Boom, Cores: n, Scale: c.Scale})
	}
	for _, spec := range specs {
		for _, style := range []baseline.Style{baseline.Verilator, baseline.Essent} {
			met, err := baselineMetrics(spec, style, m, codegen.O3)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %-10s %9.1f%% %9.1f%% %9.1f%%\n",
				spec.Name(), style, 100*met.FrontendBound, 100*met.BadSpec, 100*met.Others)
		}
	}
	return nil
}

// Figure8 reproduces baseline compilation time and peak memory.
func Figure8(w io.Writer, c Config) error {
	c = c.norm()
	fmt.Fprintln(w, "Figure 8: compilation cost, Verilator vs ESSENT")
	fmt.Fprintf(w, "%-10s %-10s %14s %14s\n", "design", "simulator", "time (s)", "peak mem (GB)")
	for _, n := range []int{1, 4, 8, 12} {
		for _, fam := range []gen.Family{gen.Rocket, gen.Boom} {
			spec := gen.Spec{Family: fam, Cores: n, Scale: c.Scale}
			for _, style := range []baseline.Style{baseline.Verilator, baseline.Essent} {
				p, err := baselineProgram(spec, style)
				if err != nil {
					return err
				}
				cost := codegen.CompileModel(p, codegen.O3)
				fmt.Fprintf(w, "%-10s %-10s %14.1f %14.2f\n", spec.Name(), style, cost.Seconds, cost.PeakGB)
			}
		}
	}
	return nil
}

// Table4 reproduces the kernel binary sizes for the 8-core RocketChip.
func Table4(w io.Writer, c Config) error {
	c = c.norm()
	spec := gen.Spec{Family: gen.Rocket, Cores: 8, Scale: c.Scale}
	fmt.Fprintln(w, "Table 4: binary size of RTeAAL Sim kernels (8-core RocketChip)")
	fmt.Fprintf(w, "%-8s %12s\n", "kernel", "size (MB)")
	for _, k := range kernel.Kinds() {
		p, err := kernelProgram(spec, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %12.2f\n", k, float64(codegen.BinarySize(p))/(1<<20))
	}
	return nil
}

// Table5 reproduces dynamic instruction counts and IPC per kernel on Xeon.
func Table5(w io.Writer, c Config) error {
	c = c.norm()
	spec := gen.Spec{Family: gen.Rocket, Cores: 8, Scale: c.Scale}
	fmt.Fprintln(w, "Table 5: dynamic instructions and IPC (8-core RocketChip, Intel Xeon)")
	fmt.Fprintf(w, "%-8s %16s %8s\n", "kernel", "dyn. inst (T)", "IPC")
	for _, k := range kernel.Kinds() {
		met, err := kernelMetrics(spec, k, machines.IntelXeon(), codegen.O3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %16.3f %8.2f\n", k, met.DynInst/1e12, met.IPC)
	}
	return nil
}

// Table6 reproduces the cache profile per kernel on Xeon.
func Table6(w io.Writer, c Config) error {
	c = c.norm()
	spec := gen.Spec{Family: gen.Rocket, Cores: 8, Scale: c.Scale}
	fmt.Fprintln(w, "Table 6: cache profile (8-core RocketChip, Intel Xeon), billions")
	fmt.Fprintf(w, "%-8s %14s %14s %14s\n", "kernel", "L1I miss (B)", "L1D load (B)", "L1D miss (B)")
	for _, k := range kernel.Kinds() {
		met, err := kernelMetrics(spec, k, machines.IntelXeon(), codegen.O3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %14.2f %14.1f %14.2f\n", k,
			met.L1IMisses/1e9, met.L1DLoads/1e9, met.L1DMisses/1e9)
	}
	return nil
}

// Figure15 reproduces kernel compilation cost across the four machines.
// (The compile model is host-independent in time shape; the paper's four
// curves differ by host CPU speed, modelled with a per-host factor.)
func Figure15(w io.Writer, c Config) error {
	c = c.norm()
	spec := gen.Spec{Family: gen.Rocket, Cores: 8, Scale: c.Scale}
	hostFactor := map[string]float64{
		machines.IntelCore().Name: 0.55,
		machines.IntelXeon().Name: 1.0,
		machines.AMD().Name:       1.25,
		machines.Graviton().Name:  0.9,
	}
	fmt.Fprintln(w, "Figure 15: kernel compilation cost (8-core RocketChip)")
	fmt.Fprintf(w, "%-8s %-24s %12s %14s\n", "kernel", "machine", "time (s)", "peak mem (GB)")
	for _, k := range kernel.Kinds() {
		p, err := kernelProgram(spec, k)
		if err != nil {
			return err
		}
		cost := codegen.CompileModel(p, codegen.O3)
		for _, m := range machines.All() {
			fmt.Fprintf(w, "%-8s %-24s %12.1f %14.2f\n",
				k, m.Name, cost.Seconds*hostFactor[m.Name], cost.PeakGB)
		}
	}
	return nil
}

// Figure16 reproduces kernel simulation time across the four machines.
func Figure16(w io.Writer, c Config) error {
	c = c.norm()
	spec := gen.Spec{Family: gen.Rocket, Cores: 8, Scale: c.Scale}
	fmt.Fprintln(w, "Figure 16: kernel simulation time (8-core RocketChip)")
	fmt.Fprintf(w, "%-8s", "kernel")
	for _, m := range machines.All() {
		fmt.Fprintf(w, " %14s", shortName(m))
	}
	fmt.Fprintln(w)
	for _, k := range kernel.Kinds() {
		fmt.Fprintf(w, "%-8s", k)
		for _, m := range machines.All() {
			met, err := kernelMetrics(spec, k, m, codegen.O3)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %13.1fs", met.SimTimeSec)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure17 reproduces kernel scaling over 1-24-core RocketChips on Xeon.
func Figure17(w io.Writer, c Config) error {
	c = c.norm()
	specs := rockets(c, 1, 4, 8, 12, 16, 20, 24)
	fmt.Fprintln(w, "Figure 17: kernel simulation time vs design size (Intel Xeon)")
	fmt.Fprintf(w, "%-8s", "kernel")
	for _, s := range specs {
		fmt.Fprintf(w, " %9s", s.Name())
	}
	fmt.Fprintln(w)
	for _, k := range kernel.Kinds() {
		fmt.Fprintf(w, "%-8s", k)
		for _, s := range specs {
			met, err := kernelMetrics(s, k, machines.IntelXeon(), codegen.O3)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %8.1fs", met.SimTimeSec)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figure1819 shares the Verilator/PSU/ESSENT scaling sweep.
func figure1819(w io.Writer, c Config, opt codegen.OptLevel, caption string) error {
	c = c.norm()
	specs := rockets(c, 1, 4, 8, 12, 16, 20, 24)
	fmt.Fprintln(w, caption)
	fmt.Fprintf(w, "%-10s", "simulator")
	for _, s := range specs {
		fmt.Fprintf(w, " %9s", s.Name())
	}
	fmt.Fprintln(w)
	row := func(name string, f func(gen.Spec) (perf.Metrics, error)) error {
		fmt.Fprintf(w, "%-10s", name)
		for _, s := range specs {
			met, err := f(s)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %8.1fs", met.SimTimeSec)
		}
		fmt.Fprintln(w)
		return nil
	}
	if err := row("verilator", func(s gen.Spec) (perf.Metrics, error) {
		return baselineMetrics(s, baseline.Verilator, machines.IntelXeon(), opt)
	}); err != nil {
		return err
	}
	if err := row("PSU", func(s gen.Spec) (perf.Metrics, error) {
		return kernelMetrics(s, kernel.PSU, machines.IntelXeon(), opt)
	}); err != nil {
		return err
	}
	return row("essent", func(s gen.Spec) (perf.Metrics, error) {
		return baselineMetrics(s, baseline.Essent, machines.IntelXeon(), opt)
	})
}

// Figure18 is the -O3 baseline-vs-PSU scaling comparison.
func Figure18(w io.Writer, c Config) error {
	return figure1819(w, c, codegen.O3,
		"Figure 18: Verilator vs PSU vs ESSENT, clang -O3 (Intel Xeon)")
}

// Figure19 is the -O0 variant (§7.4).
func Figure19(w io.Writer, c Config) error {
	return figure1819(w, c, codegen.O0,
		"Figure 19: Verilator vs PSU vs ESSENT, clang -O0 (Intel Xeon)")
}

// Figure20 reproduces the main evaluation: best-kernel speedup over
// Verilator (and ESSENT's) across all designs and machines.
func Figure20(w io.Writer, c Config) error {
	c = c.norm()
	fmt.Fprintln(w, "Figure 20: speedup over Verilator (best RTeAAL kernel | ESSENT)")
	fmt.Fprintf(w, "%-8s", "design")
	for _, m := range machines.All() {
		fmt.Fprintf(w, " %22s", shortName(m))
	}
	fmt.Fprintln(w)
	for _, spec := range mainEvalSpecs(c) {
		fmt.Fprintf(w, "%-8s", spec.Name())
		for _, m := range machines.All() {
			ver, err := baselineMetrics(spec, baseline.Verilator, m, codegen.O3)
			if err != nil {
				return err
			}
			ess, err := baselineMetrics(spec, baseline.Essent, m, codegen.O3)
			if err != nil {
				return err
			}
			best, bestKind := 0.0, kernel.RU
			for _, k := range kernel.Kinds() {
				met, err := kernelMetrics(spec, k, m, codegen.O3)
				if err != nil {
					return err
				}
				if sp := ver.SimTimeSec / met.SimTimeSec; sp > best {
					best, bestKind = sp, k
				}
			}
			fmt.Fprintf(w, "  %5.2fx(%-3s)|%5.2fx", best, bestKind, ver.SimTimeSec/ess.SimTimeSec)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure21 reproduces the Intel CAT LLC-capacity sweep on the 8-core
// SmallBOOM.
func Figure21(w io.Writer, c Config) error {
	c = c.norm()
	spec := boom(c, 8)
	fmt.Fprintln(w, "Figure 21: speedup over Verilator as LLC shrinks (8-core SmallBOOM, Xeon CAT)")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "LLC", "RTeAAL(PSU)", "ESSENT")
	for _, llcMB := range []float64{10.5, 7, 3.5} {
		m := machines.IntelXeon().WithLLC(int64(llcMB * float64(1<<20)))
		ver, err := baselineMetrics(spec, baseline.Verilator, m, codegen.O3)
		if err != nil {
			return err
		}
		psu, err := kernelMetrics(spec, kernel.PSU, m, codegen.O3)
		if err != nil {
			return err
		}
		ess, err := baselineMetrics(spec, baseline.Essent, m, codegen.O3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%7.1fMB %11.2fx %11.2fx\n",
			llcMB, ver.SimTimeSec/psu.SimTimeSec, ver.SimTimeSec/ess.SimTimeSec)
	}
	return nil
}

// Table7 reproduces the compile-cost scaling comparison.
func Table7(w io.Writer, c Config) error {
	c = c.norm()
	specs := rockets(c, 1, 4, 8, 12, 16, 20, 24)
	fmt.Fprintln(w, "Table 7: compilation cost scaling (1-24-core RocketChips)")
	fmt.Fprintf(w, "%-11s", "simulator")
	for _, s := range specs {
		fmt.Fprintf(w, " %9s", s.Name())
	}
	fmt.Fprintln(w)
	progFor := func(s gen.Spec, name string) (*codegen.Program, error) {
		switch name {
		case "verilator":
			return baselineProgram(s, baseline.Verilator)
		case "essent":
			return baselineProgram(s, baseline.Essent)
		default:
			return kernelProgram(s, kernel.PSU)
		}
	}
	for _, part := range []struct {
		what string
		get  func(codegen.CompileCost) float64
	}{
		{"time (s)", func(c codegen.CompileCost) float64 { return c.Seconds }},
		{"mem (GB)", func(c codegen.CompileCost) float64 { return c.PeakGB }},
	} {
		fmt.Fprintf(w, "-- %s --\n", part.what)
		for _, name := range []string{"verilator", "essent", "PSU"} {
			fmt.Fprintf(w, "%-11s", name)
			for _, s := range specs {
				p, err := progFor(s, name)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %9.2f", part.get(codegen.CompileModel(p, codegen.O3)))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func shortName(m machines.Machine) string {
	switch m.Name {
	case machines.IntelCore().Name:
		return "IntelCore"
	case machines.IntelXeon().Name:
		return "IntelXeon"
	case machines.AMD().Name:
		return "AMD"
	default:
		return "AWS"
	}
}

// All runs every experiment in paper order.
func All(w io.Writer, c Config) error {
	steps := []func() error{
		func() error { return Table1(w, c) },
		func() error { Table3(w, c); return nil },
		func() error { return Figure7(w, c) },
		func() error { return Figure8(w, c) },
		func() error { return Table4(w, c) },
		func() error { return Table5(w, c) },
		func() error { return Table6(w, c) },
		func() error { return Figure15(w, c) },
		func() error { return Figure16(w, c) },
		func() error { return Figure17(w, c) },
		func() error { return Figure18(w, c) },
		func() error { return Figure19(w, c) },
		func() error { return Figure20(w, c) },
		func() error { return Figure21(w, c) },
		func() error { return Table7(w, c) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
