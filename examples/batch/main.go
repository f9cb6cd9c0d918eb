// Batch: sweep many stimuli of one compiled design in a single multi-lane
// simulation. The design is compiled once; a Batch holds every lane's value
// state in structure-of-arrays layout and advances all lanes lock-step
// through one fused settle/commit schedule, optionally sharded over
// persistent lane workers chosen where the batch is minted
// (Design.NewBatchParallel).
//
// The example sweeps the gain of a small multiply-accumulate pipeline: lane
// l applies gain l+1 to the same input stream, so one batch Step explores
// the whole parameter space per cycle.
package main

import (
	"fmt"
	"log"
	"runtime"

	"rteaal/sim"
)

const src = `
circuit Mac :
  module Mac :
    input clock : Clock
    input reset : UInt<1>
    input in : UInt<16>
    input gain : UInt<8>
    output acc : UInt<32>
    regreset sum : UInt<32>, clock, reset, UInt<32>(0)
    node scaled = mul(in, gain)
    sum <= tail(add(sum, scaled), 1)
    acc <= sum
`

func main() {
	// Shard the batch's lanes over up to four persistent worker
	// goroutines; each worker owns a contiguous lane block and the lanes
	// stay bit-identical to dedicated sessions.
	workers := min(4, runtime.GOMAXPROCS(0))
	design, err := sim.Compile(src, sim.WithKernel(sim.PSU))
	if err != nil {
		log.Fatal(err)
	}

	const lanes = 8
	b, err := design.NewBatchParallel(lanes, workers)
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()
	fmt.Printf("sweeping %d gains on %q with %d lane workers\n",
		lanes, design.Name(), b.Workers())

	// Lane l simulates gain l+1. The input stream is shared by all lanes.
	for lane := 0; lane < lanes; lane++ {
		if err := b.Poke(lane, "gain", uint64(lane+1)); err != nil {
			log.Fatal(err)
		}
	}
	for cycle := 1; cycle <= 10; cycle++ {
		if err := b.PokeAll("in", uint64(cycle)); err != nil {
			log.Fatal(err)
		}
		b.Step()
	}

	// Every lane accumulated sum(1..10) scaled by its own gain.
	for lane := 0; lane < lanes; lane++ {
		acc := b.Registers(lane)[0]
		fmt.Printf("  gain %d: acc = %4d\n", lane+1, acc)
	}
}
