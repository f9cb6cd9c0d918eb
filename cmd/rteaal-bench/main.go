// Command rteaal-bench regenerates the paper's tables and figures.
//
//	rteaal-bench all
//	rteaal-bench -scale 8 table5 figure16 figure20
//	rteaal-bench -json BENCH.json throughput batch
//
// The extra "throughput" experiment (not from the paper) measures the
// serving path of the public sim package: single-session stepping versus
// RepCut-partitioned sessions versus SoA multi-lane batches versus a
// session pool drained by parallel workers. "workloads" drives the Table 3
// workload rows through the public sim.Testbench transaction layer and
// reports delivered cycles/s plus the extrapolated full-workload wall
// clock. "batch" is the lane-sharded batch engine study: the fused
// schedule vs the pre-schedule scalar loop, the bit-packed schedule
// (1-bit slots stored one lane per bit, word-wide bodies — its column is
// measured against the fused row), and fused/packed worker scaling, on
// the datapath SoCs plus the control-dominated Ctrl arbiter fabric.
// "partitions" is the RepCut strong-scaling study
// (speedup vs. replication and cut size, per partition strategy, with and
// without OS-thread pinning), and "partition-quality" sweeps strategy ×
// partition count across the benchmark designs. "serve" drives a loopback
// instance of the HTTP session service (internal/server) through
// sim/client at command-batch sizes 1/16/256, reporting requests/s and
// delivered cycles/s against the in-process testbench rate. "amortise" is
// the bulk-run dispatch study: cycles/s versus the Run(k) chunk size
// k ∈ {1, 16, 256, 4096} on the lane-sharded batch (fused and packed,
// workers 1/2/4) and the partitioned engine (2/4 parts), isolating
// per-cycle dispatch overhead from simulation work.
//
// With -json <path>, every experiment's results are additionally emitted
// as one machine-readable document: {experiment, design, metric, value,
// unit} rows plus host parallelism metadata. Committing that file as
// BENCH_<PR>.json is how the repository tracks its perf trajectory.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"rteaal/internal/bench"
	"rteaal/internal/gen"
	"rteaal/sim"
)

func main() {
	scale := flag.Int("scale", 8, "design scale divisor for perf-model experiments")
	jsonPath := flag.String("json", "", "also write every experiment's results as JSON to this path")
	flag.Parse()
	c := bench.Config{Scale: *scale}
	if *jsonPath != "" {
		c.Rec = bench.NewRecorder()
	}

	experiments := map[string]func() error{
		"table1":            func() error { return bench.Table1(os.Stdout, c) },
		"table3":            func() error { bench.Table3(os.Stdout, c); return nil },
		"figure7":           func() error { return bench.Figure7(os.Stdout, c) },
		"figure8":           func() error { return bench.Figure8(os.Stdout, c) },
		"table4":            func() error { return bench.Table4(os.Stdout, c) },
		"table5":            func() error { return bench.Table5(os.Stdout, c) },
		"table6":            func() error { return bench.Table6(os.Stdout, c) },
		"figure15":          func() error { return bench.Figure15(os.Stdout, c) },
		"figure16":          func() error { return bench.Figure16(os.Stdout, c) },
		"figure17":          func() error { return bench.Figure17(os.Stdout, c) },
		"figure18":          func() error { return bench.Figure18(os.Stdout, c) },
		"figure19":          func() error { return bench.Figure19(os.Stdout, c) },
		"figure20":          func() error { return bench.Figure20(os.Stdout, c) },
		"figure21":          func() error { return bench.Figure21(os.Stdout, c) },
		"table7":            func() error { return bench.Table7(os.Stdout, c) },
		"throughput":        func() error { return throughput(c) },
		"workloads":         func() error { return bench.Workloads(os.Stdout, c) },
		"batch":             func() error { return bench.BatchSweep(os.Stdout, c) },
		"partitions":        func() error { return partitionScaling(c) },
		"partition-quality": func() error { return bench.PartitionQuality(os.Stdout, c) },
		"serve":             func() error { return bench.Serve(os.Stdout, c) },
		"amortise":          func() error { return bench.AmortiseSweep(os.Stdout, c) },
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	for _, name := range args {
		name = strings.ToLower(name)
		if name == "all" {
			if err := bench.All(os.Stdout, c); err != nil {
				fatal(err)
			}
			continue
		}
		f, ok := experiments[name]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try table1..table7, figure7..figure21, throughput, workloads, batch, partitions, partition-quality, serve, amortise, all)", name))
		}
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if c.Rec != nil {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := c.Rec.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d results to %s\n", len(c.Rec.Results()), *jsonPath)
	}
}

// throughput measures cycles/second of the public API's three serving
// shapes on one compiled design: a lone session, SoA batches of widening
// lane counts, and a pool drained by GOMAXPROCS workers.
func throughput(c bench.Config) error {
	g, _, err := bench.Build(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: c.Scale})
	if err != nil {
		return err
	}
	d, err := sim.CompileGraph(g, sim.WithKernel(sim.PSU))
	if err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("throughput: design %s, %d ops, kernel %s (compile once, simulate many)\n",
		st.Design, st.Ops, d.Kernel())
	const cycles = 2000
	nIn := len(d.Inputs())

	// One session, random stimulus every cycle.
	s := d.NewSession()
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < cycles; i++ {
		for j := 0; j < nIn; j++ {
			s.PokeIndex(j, rng.Uint64())
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	el := time.Since(start)
	base := float64(cycles) / el.Seconds()
	fmt.Printf("  %-22s %12.0f cycles/s\n", "session x1", base)
	c.Rec.Add("throughput", st.Design, "session_cycles_per_sec", base, "cycles/s")

	// Partitioned sessions: RepCut threads accelerate one instance.
	for _, parts := range []int{2, 4} {
		pd, err := sim.CompileGraph(g, sim.WithKernel(sim.PSU), sim.WithPartitions(parts))
		if err != nil {
			return err
		}
		ps := pd.NewSession()
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		for i := 0; i < cycles; i++ {
			for j := 0; j < nIn; j++ {
				ps.PokeIndex(j, rng.Uint64())
			}
			if err := ps.Step(); err != nil {
				return err
			}
		}
		el := time.Since(start)
		ps.Close()
		rate := float64(cycles) / el.Seconds()
		pst, _ := pd.PartitionStats()
		fmt.Printf("  %-22s %12.0f cycles/s       (%.1fx one session, replication %.2fx)\n",
			fmt.Sprintf("session x1, %d parts", pst.Partitions), rate, rate/base, pst.ReplicationFactor)
		c.Rec.Add("throughput", st.Design,
			fmt.Sprintf("partitioned_cycles_per_sec/parts_%d", pst.Partitions), rate, "cycles/s")
	}

	// Batches: lock-step lanes multiply delivered simulation cycles; the
	// last configurations shard the lanes over persistent workers.
	for _, shape := range []struct{ lanes, workers int }{
		{4, 1}, {16, 1}, {64, 1}, {64, 2}, {64, 4},
	} {
		b, err := d.NewBatchParallel(shape.lanes, shape.workers)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		for i := 0; i < cycles; i++ {
			for l := 0; l < shape.lanes; l++ {
				for j := 0; j < nIn; j++ {
					b.PokeIndex(l, j, rng.Uint64())
				}
			}
			b.Step()
		}
		el := time.Since(start)
		b.Close()
		lane := float64(cycles*shape.lanes) / el.Seconds()
		label := fmt.Sprintf("batch x%d", shape.lanes)
		if shape.workers > 1 {
			label = fmt.Sprintf("batch x%d, %d workers", shape.lanes, shape.workers)
		}
		fmt.Printf("  %-22s %12.0f lane-cycles/s  (%.1fx one session)\n", label, lane, lane/base)
		c.Rec.Add("throughput", st.Design,
			fmt.Sprintf("batch_lane_cycles_per_sec/lanes_%d/workers_%d", shape.lanes, shape.workers),
			lane, "lane-cycles/s")
	}

	// Pool: independent sessions on all cores.
	workers := runtime.GOMAXPROCS(0)
	pool, err := sim.NewPool(d, workers)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	start = time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Do(context.Background(), func(s *sim.Session) error {
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < cycles; i++ {
					for j := 0; j < nIn; j++ {
						s.PokeIndex(j, rng.Uint64())
					}
					if err := s.Step(); err != nil {
						return err
					}
				}
				return nil
			})
		}()
	}
	wg.Wait()
	el = time.Since(start)
	agg := float64(cycles*workers) / el.Seconds()
	fmt.Printf("  %-22s %12.0f session-cycles/s  (%.1fx one session, %d workers)\n",
		fmt.Sprintf("pool x%d", workers), agg, agg/base, workers)
	c.Rec.Add("throughput", st.Design, "pool_session_cycles_per_sec", agg, "cycles/s")
	return nil
}

// partitionScaling is the RepCut strong-scaling experiment (§8): one
// design, growing partition counts, reporting wall-clock speedup per
// partition strategy against the cost side of the trade — the
// ReplicationFactor and CutSize columns explain why a row wins or loses.
func partitionScaling(c bench.Config) error {
	g, _, err := bench.Build(gen.Spec{Family: gen.Rocket, Cores: 4, Scale: c.Scale})
	if err != nil {
		return err
	}
	const cycles = 1000
	fmt.Printf("partitions: RepCut scaling on r4/%d, PSU kernel, %d cycles (GOMAXPROCS=%d)\n",
		c.Scale, cycles, runtime.GOMAXPROCS(0))
	fmt.Printf("  %-6s %-13s %-12s %-10s %-12s %-8s %s\n",
		"parts", "strategy", "cycles/s", "speedup", "replication", "cut", "ops max/min")
	run := func(parts int, opts ...sim.Option) (float64, sim.PartitionStats, error) {
		d, err := sim.CompileGraph(g, append(opts, sim.WithKernel(sim.PSU), sim.WithPartitions(parts))...)
		if err != nil {
			return 0, sim.PartitionStats{}, err
		}
		st, _ := d.PartitionStats()
		s := d.NewSession()
		nIn := len(d.Inputs())
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		for i := 0; i < cycles; i++ {
			for j := 0; j < nIn; j++ {
				s.PokeIndex(j, rng.Uint64())
			}
			if err := s.Step(); err != nil {
				return 0, st, err
			}
		}
		el := time.Since(start)
		s.Close()
		return float64(cycles) / el.Seconds(), st, nil
	}
	base, _, err := run(1)
	if err != nil {
		return err
	}
	design := fmt.Sprintf("r4/%d", c.Scale)
	fmt.Printf("  %-6d %-13s %-12.0f %-10.2f %-12.2f %-8d -\n", 1, "-", base, 1.0, 1.0, 0)
	c.Rec.Add("partitions", design, "cycles_per_sec/sequential", base, "cycles/s")
	for _, parts := range []int{2, 4, 8} {
		for _, strat := range sim.PartitionStrategies() {
			rate, st, err := run(parts, sim.WithPartitionStrategy(strat))
			if err != nil {
				return err
			}
			fmt.Printf("  %-6d %-13s %-12.0f %-10.2f %-12.2f %-8d %d/%d\n",
				st.Partitions, st.Strategy, rate, rate/base, st.ReplicationFactor,
				st.CutSize, st.MaxPartitionOps, st.MinPartitionOps)
			c.Rec.Add("partitions", design,
				fmt.Sprintf("cycles_per_sec/%s/parts_%d", st.Strategy, st.Partitions),
				rate, "cycles/s")
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rteaal-bench:", err)
	os.Exit(1)
}
