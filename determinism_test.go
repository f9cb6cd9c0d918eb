// Compile determinism: a design's LI layout, and with it everything measured
// on it, must be a function of the source text alone. The elaborator used to
// resolve register next-states in map order, so NodeIDs — hence the order
// inside every (layer, signature) group, hence every slot — differed from one
// sim.Compile to the next, and the partition planner's promise of
// determinism stood on an input that had none.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rteaal/internal/dfg"
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
	// A hierarchy, so instance paths feed NodeIDs: the round-trip property's
	// first random graph, instantiated as a.c inside a Mid and as b beside it.
	leafSrc, err := firrtl.Emit(dfg.RandomGraph(rand.New(rand.NewSource(2024)), dfg.DefaultRandomParams()))
	if err != nil {
		t.Fatal(err)
	}
	hierSrc := wrapHierarchy(t, leafSrc)
	for name, src := range map[string]string{"r4/8": socSrc, "difftest graph": fuzzSrc, "hierarchy": hierSrc} {
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

// wrapHierarchy returns the emitted module src renamed Child and instantiated
// twice in a Top: as a.c, inside a Mid that wires it through, and as b, beside
// a, every port of both wired through Top as a_<port> and b_<port>. It is
// internal/firrtl's round-trip wrapper, which also reads back the registers.
func wrapHierarchy(t *testing.T, src string) string {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var ports []firrtl.PortDecl
	for _, p := range c.MainModule().Ports {
		if p.Type == firrtl.TypeUInt {
			ports = append(ports, p)
		}
	}
	var w strings.Builder
	w.WriteString("circuit Top :\n  module Child :\n" + src[strings.Index(src, "    input clock"):])
	module := func(name string, insts ...[3]string) { // {instance, module, port prefix}
		fmt.Fprintf(&w, "  module %s :\n    input clock : Clock\n", name)
		for _, in := range insts {
			for _, p := range ports {
				fmt.Fprintf(&w, "    %s %s%s : UInt<%d>\n", [...]string{"input", "output"}[p.Dir], in[2], p.Name, p.Width)
			}
		}
		for _, in := range insts {
			fmt.Fprintf(&w, "    inst %s of %s\n    %s.clock <= clock\n", in[0], in[1], in[0])
			for _, p := range ports {
				if p.Dir == firrtl.DirInput {
					fmt.Fprintf(&w, "    %s.%s <= %s%s\n", in[0], p.Name, in[2], p.Name)
				} else {
					fmt.Fprintf(&w, "    %s%s <= %s.%s\n", in[2], p.Name, in[0], p.Name)
				}
			}
		}
	}
	module("Mid", [3]string{"c", "Child", ""})
	module("Top", [3]string{"a", "Mid", "a_"}, [3]string{"b", "Child", "b_"})
	return w.String()
}
