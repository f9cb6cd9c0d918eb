// Command rteaal-fuzz is the continuous differential fuzzer: it generates
// random designs under coverage-guided profiles (internal/difftest),
// replays seeded stimulus through every engine shape the repository ships,
// and stops on the first cross-engine divergence — which it automatically
// shrinks to a minimal case and persists as a content-addressed JSON repro.
//
//	rteaal-fuzz -t 30s -workers 4
//	rteaal-fuzz -t 5m -corpus testdata/diffcorpus -cycles 24 -lanes 3
//	rteaal-fuzz -replay testdata/diffcorpus
//
// The exit status is the contract the CI fuzz-smoke job relies on: 0 when
// the time budget expires with every engine bit-identical (or every corpus
// entry quiet under -replay), 1 with a "REPRO <path>" line on stdout when
// a divergence was found and minimised or a "BUILD FAILURE" line when a
// generated design failed to build in some engine shape, 2 on usage or I/O
// errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rteaal/internal/difftest"
	"rteaal/internal/faultinject"
)

func main() {
	var (
		budget  = flag.Duration("t", 30*time.Second, "fuzzing time budget")
		workers = flag.Int("workers", 4, "parallel fuzzing workers")
		corpus  = flag.String("corpus", "testdata/diffcorpus", "corpus directory for minimal repros")
		cycles  = flag.Int("cycles", 24, "cycles per generated case")
		lanes   = flag.Int("lanes", 3, "lanes per generated case")
		seed    = flag.Int64("seed", 1, "first generation seed (cases take seed, seed+1, ...)")
		replay  = flag.String("replay", "", "replay every repro in this directory instead of fuzzing")
		quiet   = flag.Bool("q", false, "suppress the rolling stats line")
		inject  = flag.Bool("inject-defect", false,
			"arm the deliberate faultinject engine defect (validates the find→shrink→persist path; must exit 1)")
	)
	flag.Parse()
	if *inject {
		faultinject.Arm(faultinject.EngineDefect,
			faultinject.Always(func() error { return errors.New("injected defect") }))
	}
	if *replay != "" {
		os.Exit(replayCorpus(*replay, *quiet))
	}
	if *workers < 1 || *cycles < 1 || *lanes < 1 {
		fmt.Fprintln(os.Stderr, "rteaal-fuzz: -workers, -cycles and -lanes must be >= 1")
		os.Exit(2)
	}
	os.Exit(fuzz(*budget, *workers, *corpus, *cycles, *lanes, *seed, *quiet))
}

// found is the first finding a worker hit — a divergence, or a case some
// engine shape failed to build (err) — with the case that produced it.
type found struct {
	c    *difftest.Case
	d    *difftest.Divergence
	err  error
	seed int64
	prof string
}

func fuzz(budget time.Duration, workers int, corpusDir string, cycles, lanes int, seed0 int64, quiet bool) int {
	cov := difftest.NewCoverage()
	start := time.Now()
	deadline := start.Add(budget)

	var (
		nextSeed atomic.Int64
		cases    atomic.Int64
		simCyc   atomic.Int64
		stop     atomic.Bool

		mu  sync.Mutex
		hit *found
	)
	nextSeed.Store(seed0)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed0*1000003 + int64(w)))
			for !stop.Load() && time.Now().Before(deadline) {
				seed := nextSeed.Add(1) - 1
				prof := difftest.PickProfile(cov, rng)
				c := difftest.NewCase(seed, prof, cycles, lanes)
				feats, d, err := difftest.Features(c)
				if err == nil {
					cases.Add(1)
					simCyc.Add(int64(cycles * lanes))
				}
				if d != nil || err != nil {
					mu.Lock()
					if hit == nil {
						hit = &found{c: c, d: d, err: err, seed: seed, prof: prof.Name}
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				cov.Add(feats)
			}
		}(w)
	}

	statsStop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if stop.Load() {
					return
				}
				if !quiet {
					el := time.Since(start).Round(time.Second)
					fmt.Printf("\r%8s  cases %-6d  features %-3d  lane-cycles %-8d",
						el, cases.Load(), cov.Size(), simCyc.Load())
				}
			case <-statsStop:
				return
			}
		}
	}()
	wg.Wait()
	close(statsStop)
	<-statsDone
	if !quiet {
		fmt.Println()
	}

	if hit == nil {
		n := cases.Load()
		fmt.Printf("PASS: %d cases (%.0f cases/s), %d coverage features, no divergence in %s\n",
			n, float64(n)/time.Since(start).Seconds(), cov.Size(), budget)
		return 0
	}
	if hit.err != nil {
		fmt.Printf("BUILD FAILURE (seed %d, profile %s): %v\n", hit.seed, hit.prof, hit.err)
		return 1
	}

	fmt.Printf("DIVERGENCE (seed %d, profile %s): %s\n", hit.seed, hit.prof, hit.d)
	min, md, stats, err := difftest.Shrink(hit.c)
	if err != nil {
		// Flaky divergence (should not happen: cases are deterministic).
		fmt.Fprintf(os.Stderr, "rteaal-fuzz: shrink: %v\n", err)
		min, md = hit.c, hit.d
	} else {
		fmt.Println(stats)
	}
	r := difftest.NewRepro(min, md)
	r.Profile, r.Seed = hit.prof, hit.seed
	r.Note = "found by rteaal-fuzz"
	if feats, _, err := difftest.Features(min); err == nil {
		for _, f := range feats {
			r.Features = append(r.Features, string(f))
		}
	}
	path, existed, err := difftest.WriteCorpus(corpusDir, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rteaal-fuzz: write corpus: %v\n", err)
		return 2
	}
	if existed {
		fmt.Printf("REPRO %s (already in corpus)\n", path)
	} else {
		fmt.Printf("REPRO %s\n", path)
	}
	fmt.Printf("minimal divergence: %s\n", md)
	return 1
}

// replayCorpus re-executes every persisted repro; entries must be quiet
// (their bug fixed) to pass, mirroring the tier-1 corpus regression test.
func replayCorpus(dir string, quiet bool) int {
	entries, err := difftest.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rteaal-fuzz: %v\n", err)
		return 2
	}
	bad := 0
	for _, e := range entries {
		c, err := e.Repro.Case()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rteaal-fuzz: %s: %v\n", e.Path, err)
			bad++
			continue
		}
		d, err := c.Execute()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rteaal-fuzz: %s: %v\n", e.Path, err)
			bad++
			continue
		}
		if d != nil {
			fmt.Printf("REPRO %s\n", e.Path)
			fmt.Printf("divergence: %s\n", d)
			bad++
			continue
		}
		if !quiet {
			fmt.Printf("ok %s\n", e.Path)
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Printf("PASS: %d corpus entries quiet\n", len(entries))
	return 0
}
