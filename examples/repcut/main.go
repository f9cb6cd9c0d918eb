// RepCut: partition a synthesised SoC across persistent worker goroutines
// with replication-aided cuts (Cascade 2) and compare wall-clock throughput
// and state equivalence against single-threaded simulation of the same
// tensor. The public path is sim.WithPartitions, which always plans with
// the min-cut planner; this example is the ablation of that choice, so it
// sits one layer down: repcut.NewPlan over the OIM tensor, with nil for the
// planner or an explicit owner vector.
package main

import (
	"fmt"
	"log"
	"time"

	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
	"rteaal/internal/testbench"
)

const cycles = 200

func main() {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 16})
	if err != nil {
		log.Fatal(err)
	}
	t, _, err := oim.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	cfg := kernel.Config{Kind: kernel.IU}
	prog, err := kernel.NewProgram(t, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design r1/16: %d ops, %d registers\n", t.TotalOps(), len(t.RegSlots))

	// run times one bulk run under the same seeded stimulus.
	run := func(e kernel.Engine) time.Duration {
		start := time.Now()
		e.RunBulk(kernel.RunSpec{Cycles: cycles, Stim: testbench.Random(7)})
		return time.Since(start)
	}

	ref := prog.Instantiate()
	fmt.Printf("sequential IU: %8v for %d cycles\n", run(ref), cycles)

	// Ownership decides what partitioning costs: round-robin is the
	// structure-blind baseline, the planner clusters registers by shared
	// logic and refines the boundary. Same tensor, same partition counts —
	// only the assignment differs.
	roundRobin := func(n int) []int {
		owner := make([]int, len(t.RegSlots))
		for ri := range owner {
			owner[ri] = ri % n
		}
		return owner
	}
	for _, name := range []string{"round-robin", "min-cut"} {
		for _, parts := range []int{2, 4, 8} {
			var owner []int // nil: the planner's
			if name == "round-robin" {
				owner = roundRobin(parts)
			}
			plan, err := repcut.NewPlan(t, parts, owner)
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
			match := true // every register, read at its Q coordinate
			for _, r := range t.RegSlots {
				match = match && inst.PeekSlot(r.Q) == ref.PeekSlot(r.Q)
			}
			ps := plan.Stats()
			fmt.Printf("repcut %d parts (%-11s): %8v, replication %.2fx, cut %d, state match: %v\n",
				parts, name, elapsed, ps.ReplicationFactor, ps.CutSize, match)
			inst.Close()
		}
	}
}
