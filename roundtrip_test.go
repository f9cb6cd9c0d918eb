// FIRRTL round-trip property: the text frontend (firrtl.Emit → parser →
// elaborator) under the same differential oracle as the engines. A random
// graph compiled directly and the same graph compiled from its emitted
// FIRRTL text must produce bit-identical output and register traces.
package main

import (
	"fmt"
	"slices"
	"testing"

	"rteaal/internal/difftest"
	"rteaal/internal/firrtl"
	"rteaal/sim"
)

func TestFIRRTLRoundTripProperty(t *testing.T) {
	total, skipped := 0, 0
	for _, prof := range difftest.Profiles() {
		for seed := int64(0); seed < diffSeedsPerProfile; seed++ {
			total++
			c := difftest.NewCase(seed, prof, diffCycles, 1)
			src, err := firrtl.Emit(c.Graph)
			if err != nil {
				// Emit refuses graphs outside the FIRRTL subset it can
				// express; those cases say nothing about the frontend.
				skipped++
				t.Logf("%s/seed=%d: Emit rejects the graph: %v", prof.Name, seed, err)
				continue
			}
			t.Run(fmt.Sprintf("%s/seed=%d", prof.Name, seed), func(t *testing.T) {
				want, err := sim.CompileGraph(c.Graph)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Compile(src)
				if err != nil {
					t.Fatalf("emitted FIRRTL does not compile: %v", err)
				}
				if !slices.Equal(got.Inputs(), want.Inputs()) {
					t.Fatalf("inputs %v, want %v", got.Inputs(), want.Inputs())
				}
				if !slices.Equal(got.Outputs(), want.Outputs()) {
					t.Fatalf("outputs %v, want %v", got.Outputs(), want.Outputs())
				}
				ws, gs := want.NewSession(), got.NewSession()
				stim := sim.RandomStimulus(c.StimSeed)
				for cycle := int64(0); cycle < int64(c.Cycles); cycle++ {
					for i := range want.Inputs() {
						v := stim.Value(cycle, 0, i)
						ws.PokeIndex(i, v)
						gs.PokeIndex(i, v)
					}
					if err := ws.Step(); err != nil {
						t.Fatal(err)
					}
					if err := gs.Step(); err != nil {
						t.Fatal(err)
					}
					for i, name := range want.Outputs() {
						if a, b := gs.PeekIndex(i), ws.PeekIndex(i); a != b {
							t.Fatalf("cycle %d: output %s = %#x through FIRRTL text, %#x direct", cycle, name, a, b)
						}
					}
					wr, gr := ws.Registers(), gs.Registers()
					if len(gr) != len(wr) {
						t.Fatalf("%d registers through FIRRTL text, %d direct", len(gr), len(wr))
					}
					for i := range wr {
						if gr[i] != wr[i] {
							t.Fatalf("cycle %d: register %d = %#x through FIRRTL text, %#x direct", cycle, i, gr[i], wr[i])
						}
					}
				}
			})
		}
	}
	if 2*skipped > total {
		t.Errorf("Emit rejected %d of %d graphs: the property no longer covers the frontend", skipped, total)
	}
}
