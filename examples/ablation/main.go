// Ablation: run all seven kernel configurations of §5.2 on the same design
// and print real per-cycle wall-clock throughput — a native-Go miniature of
// Figure 16's unrolling sweet-spot study — then name the kind that measured
// fastest on the machine it runs on, and check that all seven computed the
// same state.
//
// The seven kernels are seven mappings of one tensor, so the example sits
// below sim: the design is compiled once (oim.Compile), and every kind is
// lowered from that tensor (kernel.NewProgram) before any is timed, so none
// pays for the collection of another's lowering. The kinds then run in
// interleaved rounds with a rotating start, each round one bulk run under
// the same seeded stimulus, so a slow spell of the host lands on every kind
// alike and each kind's median over the rounds is what it is ranked by.
package main

import (
	"fmt"
	"log"
	"runtime"
	"slices"
	"time"

	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/testbench"
)

const (
	rounds = 9  // timed runs per kind; the median of these ranks it
	cycles = 40 // cycles per timed run
)

func main() {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 16})
	if err != nil {
		log.Fatal(err)
	}
	t, _, err := oim.Compile(g)
	if err != nil {
		log.Fatal(err)
	}

	kinds := kernel.Kinds()
	engines := make([]kernel.Engine, len(kinds))
	for i, kind := range kinds {
		prog, err := kernel.NewProgram(t, kernel.Config{Kind: kind})
		if err != nil {
			log.Fatal(err)
		}
		engines[i] = prog.Instantiate()
	}
	fmt.Printf("design r1/16: %d ops in %d layers; %d rounds of %d cycles per kernel, rotating start\n\n",
		t.TotalOps(), t.NumLayers(), rounds, cycles)
	runtime.GC()

	stim := testbench.Random(3)
	perCycle := make([][]time.Duration, len(kinds))
	for r := 0; r < rounds; r++ {
		for j := range kinds {
			i := (r + j) % len(kinds)
			start := time.Now()
			engines[i].RunBulk(kernel.RunSpec{Cycles: cycles, Stim: stim, From: int64(r * cycles)})
			perCycle[i] = append(perCycle[i], time.Since(start)/cycles)
		}
	}

	fmt.Printf("%-8s %16s %10s\n", "kernel", "median µs/cycle", "Mops/s")
	var fastest kernel.Kind
	var best time.Duration
	for i, kind := range kinds {
		slices.Sort(perCycle[i])
		median := perCycle[i][rounds/2]
		if best == 0 || median < best {
			fastest, best = kind, median
		}
		mops := float64(t.TotalOps()) / median.Seconds() / 1e6
		fmt.Printf("%-8v %16.1f %10.0f\n", kind, float64(median.Nanoseconds())/1e3, mops)
	}

	same := true // every register, read at its Q coordinate
	for _, e := range engines[1:] {
		for _, r := range t.RegSlots {
			same = same && e.PeekSlot(r.Q) == engines[0].PeekSlot(r.Q)
		}
	}
	fmt.Printf("\nall %d kernels end in the same register state: %v\n", len(kinds), same)
	fmt.Printf("fastest on this host by median: %v (the paper's sweet spot is PSU)\n", fastest)
}
