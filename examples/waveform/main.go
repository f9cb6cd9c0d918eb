// Waveform: simulate a counter and dump a VCD trace (§6.2 waveform
// generation) that any viewer (GTKWave etc.) can open.
package main

import (
	"fmt"
	"log"
	"os"

	"rteaal/sim"
)

const src = `
circuit Blinker :
  module Blinker :
    input clock : Clock
    input enable : UInt<1>
    output led : UInt<1>
    output count : UInt<4>
    reg c : UInt<4>, clock
    c <= mux(enable, tail(add(c, UInt<4>(1)), 1), c)
    count <= c
    led <= bits(c, 3, 3)
`

func main() {
	// Every design keeps every register's coordinate, so any session can
	// bind them all for the capture below.
	design, err := sim.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	s := design.NewSession()
	f, err := os.Create("blinker.vcd")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := s.EnableWaveform(f); err != nil {
		log.Fatal(err)
	}

	s.Poke("enable", 1)
	if err := s.Run(40); err != nil {
		log.Fatal(err)
	}
	s.Poke("enable", 0) // hold: no transitions recorded
	if err := s.Run(8); err != nil {
		log.Fatal(err)
	}
	if err := s.CloseWaveform(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote blinker.vcd with 48 cycles of activity")
}
