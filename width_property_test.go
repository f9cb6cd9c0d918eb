// Property test for the batch width analysis: across the full differential
// corpus (the same profile × seed sweep TestDifferentialCrossEngine runs),
// every LI slot the analysis classifies as provably 1-bit must in fact
// never hold a value above 1 — at reset and after every cycle of random
// stimulus. The packed batch layout stores exactly these slots one lane per
// bit, so a single violated classification would silently corrupt 64 lanes
// at once; this test is the safety net under that licence.
package main

import (
	"fmt"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/difftest"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/testbench"
)

func TestWidthAnalysisOneBitProperty(t *testing.T) {
	classified, checked := 0, 0
	for _, prof := range difftest.Profiles() {
		for seed := int64(0); seed < diffSeedsPerProfile; seed++ {
			tc := difftest.NewCase(seed, prof, diffCycles, diffLanes)
			opt, err := dfg.Optimize(tc.Graph, dfg.DefaultOptOptions())
			if err != nil {
				t.Fatal(err)
			}
			lv, err := dfg.Levelize(opt)
			if err != nil {
				t.Fatal(err)
			}
			ten, err := oim.Build(lv)
			if err != nil {
				t.Fatal(err)
			}
			one := kernel.OneBitSlots(ten)
			var slots []int32
			for s, ok := range one {
				if ok {
					slots = append(slots, int32(s))
				}
			}
			classified += len(slots)
			if len(slots) == 0 {
				continue
			}
			// A scalar TI engine keeps every LI coordinate's full value
			// between cycles, so the property is checked where no layout can
			// hide a violation: one engine per lane.
			lanes := make([]kernel.Engine, diffLanes)
			for lane := range lanes {
				if lanes[lane], err = newEngine(ten, kernel.Config{Kind: kernel.TI}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string) {
				for lane, e := range lanes {
					for _, s := range slots {
						if v := e.PeekSlot(s); v > 1 {
							t.Fatalf("%s seed %d %s lane %d: slot %d classified 1-bit holds %d\n%s",
								prof.Name, seed, when, lane, s, v, reproLine(tc, prof.Name, seed))
						}
						checked++
					}
				}
			}
			check("after reset")
			stim := testbench.Random(tc.StimSeed)
			for c := int64(0); c < diffCycles; c++ {
				for lane, e := range lanes {
					for in := range ten.InputSlots {
						pokeInput(e, in, stim.Value(c, lane, in))
					}
					e.Step()
				}
				check(fmt.Sprintf("cycle %d", c))
			}
		}
	}
	if classified == 0 {
		t.Fatal("vacuous: no slot in the whole corpus classified 1-bit")
	}
	t.Logf("checked %d slot-lane-cycle points over %d classified slots", checked, classified)
}
