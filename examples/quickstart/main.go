// Quickstart: compile a small FIRRTL design through the full RTeAAL Sim
// pipeline (frontend → dataflow graph → OIM tensor → kernel) and simulate
// it cycle by cycle with the public sim package.
package main

import (
	"fmt"
	"log"

	"rteaal/sim"
)

const src = `
circuit Fibonacci :
  module Fibonacci :
    input clock : Clock
    input reset : UInt<1>
    output fib : UInt<32>
    regreset a : UInt<32>, clock, reset, UInt<32>(0)
    regreset b : UInt<32>, clock, reset, UInt<32>(1)
    node sum = tail(add(a, b), 1)
    a <= b
    b <= sum
    fib <= a
`

func main() {
	design, err := sim.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	st := design.Stats()
	fmt.Printf("compiled %q: %d ops in %d layers, OIM density %.2e\n",
		st.Design, st.Ops, st.Layers, st.Density)

	// The design is compiled once; sessions are cheap simulation instances.
	s := design.NewSession()
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			log.Fatal(err)
		}
		v, _ := s.Peek("fib")
		fmt.Printf("cycle %2d: fib = %d\n", s.Cycle(), v)
	}
}
