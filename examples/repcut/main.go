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
	"math/rand"
	"slices"
	"time"

	"rteaal/internal/dfg"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
)

const cycles = 200

func main() {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 16})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		log.Fatal(err)
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		log.Fatal(err)
	}
	t, err := oim.Build(lv)
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
			for _, slot := range t.InputSlots {
				e.PokeSlot(slot, stim.Uint64())
			}
			e.Step()
		}
		return time.Since(start)
	}

	// regs reads the committed registers through their Q coordinates.
	regs := func(e kernel.Engine) []uint64 {
		out := make([]uint64, len(t.RegSlots))
		for i, r := range t.RegSlots {
			out[i] = e.PeekSlot(r.Q)
		}
		return out
	}

	ref := prog.Instantiate()
	fmt.Printf("sequential PSU: %8v for %d cycles\n", run(ref), cycles)

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
			ps := plan.Stats()
			fmt.Printf("repcut %d parts (%-11s): %8v, replication %.2fx, cut %d, state match: %v\n",
				parts, name, elapsed, ps.ReplicationFactor, ps.CutSize,
				slices.Equal(regs(ref), regs(inst)))
			inst.Close()
		}
	}
}
