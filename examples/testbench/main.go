// Testbench: drive a design through the public transaction layer of §6.2.
// A sim.Testbench binds DMI-style ports — named signals resolved once to
// LI-tensor coordinates — to a session or a batch, and layers stimulus
// drivers and valid/ready transaction helpers on top. The same testbench
// code runs unchanged over the scalar engine, RepCut-partitioned sessions,
// and multi-lane batches.
package main

import (
	"fmt"
	"log"

	"rteaal/sim"
)

// A request/response DUT: a beat fires on the first cycle of in_valid,
// accumulating in_data into sum; out_ready pulses one cycle later, so each
// valid/ready handshake consumes the payload exactly once.
const src = `
circuit Accum :
  module Accum :
    input clock : Clock
    input reset : UInt<1>
    input in_valid : UInt<1>
    input in_data : UInt<16>
    output out_ready : UInt<1>
    output out_sum : UInt<32>
    reg rv : UInt<1>, clock
    regreset sum : UInt<32>, clock, reset, UInt<32>(0)
    node fire = and(in_valid, not(rv))
    rv <= fire
    sum <= mux(fire, tail(add(sum, pad(in_data, 32)), 1), sum)
    out_ready <= rv
    out_sum <= sum
`

func main() {
	design, err := sim.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signals: %v\n\n", design.Signals())

	// Session testbench: transact over the valid/ready pair.
	s := design.NewSession()
	tb := s.Testbench()
	for _, v := range []uint64{100, 20, 3} {
		cycles, err := tb.Handshake("in_valid", map[string]uint64{"in_data": v}, "out_ready", 10)
		if err != nil {
			log.Fatal(err)
		}
		sum, err := tb.Port("out_sum")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sent %3d (%d cycles)  ->  sum = %d\n", v, cycles, sum.Peek())
	}

	// Ports read architectural state directly: the register behind out_sum.
	reg, err := tb.Port("sum")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("register %q (%s) = %d at cycle %d\n\n", reg.Name(), reg.Kind(), reg.Peek(), tb.Cycle())

	// Batch testbench: four lanes accumulate different streams lock-step.
	// Lane l adds l+1 on every fired beat (one beat per two cycles with
	// valid held high); per-lane ports observe each lane.
	b, err := design.NewBatch(4)
	if err != nil {
		log.Fatal(err)
	}
	btb := b.Testbench()
	inputs := design.Inputs() // stimulus indices follow this order
	btb.Drive(sim.StimulusFunc(func(cycle int64, lane, input int) uint64 {
		switch inputs[input] {
		case "in_valid":
			return 1 // every lane sends every cycle
		case "in_data":
			return uint64(lane + 1) // each lane accumulates its own stream
		default:
			return 0 // hold reset low
		}
	}))
	if err := btb.Run(10); err != nil {
		log.Fatal(err)
	}
	for lane := 0; lane < btb.Lanes(); lane++ {
		p, err := btb.PortLane("out_sum", lane)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("lane %d: sum after 10 cycles = %d\n", lane, p.Peek())
	}
}
