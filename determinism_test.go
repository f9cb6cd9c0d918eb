// Compile determinism: a design's LI layout, and with it everything measured
// on it, must be a function of the source text alone. The elaborator used to
// resolve register next-states in map order, so NodeIDs — hence the order
// inside every (layer, signature) group, hence every slot — differed from one
// sim.Compile to the next, and partition.Strategy's promise of determinism
// stood on an input that had none.
package main

import (
	"bytes"
	"reflect"
	"testing"

	"rteaal/internal/difftest"
	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
	"rteaal/sim"
)

// TestCompileDeterministic: two compiles of one FIRRTL text give
// byte-identical OIM JSON and, partitioned, identical plans. One process sees
// one map seed per map, so CI runs this with -count=3.
func TestCompileDeterministic(t *testing.T) {
	soc, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 4, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	socSrc, err := firrtl.Emit(soc)
	if err != nil {
		t.Fatal(err)
	}
	// One of the fuzzer's graphs: the first its first profile draws that the
	// emitter can express.
	var fuzzSrc string
	for seed := int64(0); fuzzSrc == ""; seed++ {
		fuzzSrc, _ = firrtl.Emit(difftest.NewCase(seed, difftest.Profiles()[0], diffCycles, 1).Graph)
	}
	for name, src := range map[string]string{"r4/8": socSrc, "difftest graph": fuzzSrc} {
		for _, opts := range [][]sim.Option{nil, {sim.WithPartitions(2)}} {
			var oims [2]bytes.Buffer
			var plans [2]sim.PartitionStats
			for i := range oims {
				d, err := sim.Compile(src, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := d.WriteOIM(&oims[i]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				plans[i], _ = d.PartitionStats()
			}
			if !bytes.Equal(oims[0].Bytes(), oims[1].Bytes()) {
				t.Errorf("%s (%d options): two compiles of one source wrote different OIMs", name, len(opts))
			}
			if !reflect.DeepEqual(plans[0], plans[1]) {
				t.Errorf("%s (%d options): two compiles of one source planned %+v and %+v", name, len(opts), plans[0], plans[1])
			}
		}
	}
}
