// Ablation: run all seven kernel configurations of §5.2 on the same design
// and print real per-cycle wall-clock throughput — a native-Go miniature of
// Figure 16's unrolling sweet-spot study, driven through the public sim
// package — then name the kind that measured fastest on the machine it runs
// on, and check that all seven computed the same state.
//
// Every kind is compiled before any is timed, so no kind pays for the
// collection of another's compile. The kinds then run in interleaved rounds
// with a rotating start, each round a bulk run under the same seeded
// stimulus, so a slow spell of the host lands on every kind alike and each
// kind's median over the rounds is what it is ranked by.
package main

import (
	"fmt"
	"log"
	"runtime"
	"slices"
	"time"

	"rteaal/internal/gen"
	"rteaal/sim"
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

	kinds := sim.Kernels()
	sessions := make([]*sim.Session, len(kinds))
	benches := make([]*sim.Testbench, len(kinds))
	for i, kind := range kinds {
		design, err := sim.CompileGraph(g, sim.WithKernel(kind))
		if err != nil {
			log.Fatal(err)
		}
		sessions[i] = design.NewSession()
		benches[i] = sessions[i].Testbench()
		benches[i].Drive(sim.RandomStimulus(3))
	}
	st := sessions[0].Design().Stats()
	fmt.Printf("design r1/16: %d ops in %d layers; %d rounds of %d cycles per kernel, rotating start\n\n",
		st.Ops, st.Layers, rounds, cycles)
	runtime.GC()

	perCycle := make([][]time.Duration, len(kinds))
	for r := 0; r < rounds; r++ {
		for j := range kinds {
			i := (r + j) % len(kinds)
			start := time.Now()
			if err := benches[i].Run(cycles); err != nil {
				log.Fatal(err)
			}
			perCycle[i] = append(perCycle[i], time.Since(start)/cycles)
		}
	}

	fmt.Printf("%-8s %16s %10s\n", "kernel", "median µs/cycle", "Mops/s")
	var fastest sim.Kernel
	var best time.Duration
	for i, kind := range kinds {
		slices.Sort(perCycle[i])
		median := perCycle[i][rounds/2]
		if best == 0 || median < best {
			fastest, best = kind, median
		}
		mops := float64(st.Ops) / median.Seconds() / 1e6
		fmt.Printf("%-8v %16.1f %10.0f\n", kind, float64(median.Nanoseconds())/1e3, mops)
	}

	same := true
	for _, s := range sessions[1:] {
		same = same && slices.Equal(s.Registers(), sessions[0].Registers())
	}
	fmt.Printf("\nall %d kernels end in the same register state: %v\n", len(kinds), same)
	fmt.Printf("fastest on this host by median: %v (the paper's sweet spot is PSU)\n", fastest)
}
