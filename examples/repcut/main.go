// RepCut: partition a synthesised SoC across persistent worker goroutines
// with replication-aided cuts (Cascade 2) and compare wall-clock throughput
// and state equivalence against single-threaded simulation of the same
// tensor. The public path is sim.WithPartitions, which always plans with
// min-cut; this example is the ablation of that choice, so it sits one layer
// down, where the strategies live: repcut.NewPlan over the OIM tensor with a
// partition.Strategy.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"rteaal/internal/bench"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/partition"
	"rteaal/internal/repcut"
)

const cycles = 200

func main() {
	_, t, err := bench.Build(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 16})
	if err != nil {
		log.Fatal(err)
	}
	cfg := kernel.Config{Kind: kernel.PSU}
	prog, err := kernel.NewProgram(t, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design r1/16: %d ops, %d registers\n", t.TotalOps(), len(t.RegSlots))

	run := func(e kernel.Engine) time.Duration {
		stim := rand.New(rand.NewSource(7))
		start := time.Now()
		for c := 0; c < cycles; c++ {
			for i := range t.InputSlots {
				e.PokeInput(i, stim.Uint64())
			}
			e.Step()
		}
		return time.Since(start)
	}

	ref := prog.Instantiate()
	fmt.Printf("sequential PSU: %8v for %d cycles\n", run(ref), cycles)

	// The ownership strategy decides what partitioning costs: round-robin
	// is the structure-blind baseline, min-cut clusters registers by shared
	// logic and refines the boundary. Same tensor, same partition counts —
	// only the assignment differs.
	for _, strat := range []partition.Strategy{partition.RoundRobin{}, partition.MinCut{}} {
		for _, parts := range []int{2, 4, 8} {
			plan, err := repcut.NewPlan(t, parts, strat)
			if err != nil {
				log.Fatal(err)
			}
			progs, err := plan.Lower(cfg)
			if err != nil {
				log.Fatal(err)
			}
			inst, err := plan.Instantiate(progs)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := run(inst)
			ps := plan.Stats()
			fmt.Printf("repcut %d parts (%-11s): %8v, replication %.2fx, cut %d, state match: %v\n",
				parts, ps.Strategy, elapsed, ps.ReplicationFactor, ps.CutSize,
				slices.Equal(ref.RegSnapshot(), inst.RegSnapshot()))
			inst.Close()
		}
	}
}
