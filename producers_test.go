package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/difftest"
	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
)

// operandsFirst checks a graph's one ordering invariant by hand, apart from
// Validate: every operand's id is below its user's.
func operandsFirst(g *dfg.Graph) error {
	for id := range g.Nodes {
		for _, a := range g.Nodes[id].Args {
			if int(a) >= id {
				return fmt.Errorf("node %d reads node %d, which does not precede it", id, a)
			}
		}
	}
	return nil
}

// TestEveryProducerListsOperandsFirst: a graph's id order is its
// topological order, and every producer of graphs keeps it: the design
// generator on the graph path and, through Emit, the FIRRTL elaborator;
// RandomGraph; every difftest profile; the committed repro corpus; and the
// optimiser over each of them. The passes, the interpreter, Levelize, Emit
// and the baselines all walk ids in ascending order on the strength of it.
func TestEveryProducerListsOperandsFirst(t *testing.T) {
	check := func(what string, g *dfg.Graph) {
		t.Helper()
		if err := operandsFirst(g); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := operandsFirst(opt); err != nil {
			t.Fatalf("%s after Optimize: %v", what, err)
		}
	}

	for _, spec := range []gen.Spec{
		{Family: gen.Rocket, Cores: 1, Scale: 8},
		{Family: gen.Rocket, Cores: 4, Scale: 8},
		{Family: gen.Boom, Cores: 1, Scale: 8},
		{Family: gen.Gemmini, Cores: 8, Scale: 8},
		{Family: gen.SHA3, Scale: 8},
		{Family: gen.Ctrl, Cores: 64},
	} {
		g, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		check(spec.Name(), g)
		src, err := firrtl.Emit(g)
		if err != nil {
			t.Fatal(err)
		}
		fg, err := firrtl.ParseAndElaborate(src)
		if err != nil {
			t.Fatal(err)
		}
		check(spec.Name()+" through FIRRTL", fg)
	}

	rng := rand.New(rand.NewSource(1))
	for i := range 300 {
		check(fmt.Sprintf("RandomGraph %d", i), dfg.RandomGraph(rng, dfg.DefaultRandomParams()))
	}
	for _, prof := range difftest.Profiles() {
		for seed := range int64(50) {
			check(fmt.Sprintf("%s/seed=%d", prof.Name, seed), difftest.NewCase(seed, prof, 1, 1).Graph)
		}
	}

	entries, err := difftest.LoadCorpus(filepath.Join("testdata", "diffcorpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries committed")
	}
	for _, e := range entries {
		c, err := e.Repro.Case()
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.Base(e.Path), c.Graph)
	}
}
