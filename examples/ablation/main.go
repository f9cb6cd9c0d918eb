// Ablation: run all seven kernel configurations of §5.2 on the same design
// and print real per-cycle wall-clock throughput — a native-Go miniature of
// Figure 16's unrolling sweet-spot study, driven through the public sim
// package — then name the kind that measured fastest on the machine it runs
// on.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"rteaal/internal/gen"
	"rteaal/sim"
)

func main() {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 16})
	if err != nil {
		log.Fatal(err)
	}

	const cycles = 400
	first := true
	var fastest sim.Kernel
	var best time.Duration
	for _, kind := range sim.Kernels() {
		design, err := sim.CompileGraph(g, sim.WithKernel(kind))
		if err != nil {
			log.Fatal(err)
		}
		st := design.Stats()
		if first {
			fmt.Printf("design r1/16: %d ops in %d layers\n\n", st.Ops, st.Layers)
			fmt.Printf("%-8s %14s %14s\n", "kernel", "ns/cycle", "Mops/s")
			first = false
		}
		s := design.NewSession()
		rng := rand.New(rand.NewSource(3))
		nIn := len(design.Inputs())
		for i := 0; i < nIn; i++ {
			s.PokeIndex(i, rng.Uint64())
		}
		s.Step() // warm
		start := time.Now()
		for c := 0; c < cycles; c++ {
			s.Step()
		}
		perCycle := time.Since(start) / cycles
		mops := float64(st.Ops) / perCycle.Seconds() / 1e6
		fmt.Printf("%-8s %14v %14.0f\n", kind, perCycle, mops)
		if best == 0 || perCycle < best {
			fastest, best = kind, perCycle
		}
	}
	fmt.Printf("\nfastest on this host: %v (the paper's sweet spot is PSU)\n", fastest)
}
