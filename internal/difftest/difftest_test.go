package difftest

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/faultinject"
	"rteaal/internal/oim"
	"rteaal/internal/wire"
)

// TestMatrixAgrees: clean engines over every profile must stay bit-exact.
func TestMatrixAgrees(t *testing.T) {
	for _, prof := range Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				c := NewCase(seed, prof, 12, 3)
				d, err := c.Execute()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if d != nil {
					t.Fatalf("seed %d: unexpected divergence: %s", seed, d)
				}
			}
		})
	}
}

// TestFeaturesTargetsReached: each specialised profile actually exercises
// the features it targets (over a handful of seeds), so coverage-guided
// selection has real signal to work with.
func TestFeaturesTargetsReached(t *testing.T) {
	for _, prof := range Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			cov := NewCoverage()
			for seed := int64(1); seed <= 6; seed++ {
				feats, err := Features(NewCase(seed, prof, 16, 1))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				cov.Add(feats)
			}
			for _, f := range prof.Targets {
				if !cov.Covered(f) {
					t.Errorf("profile %s never exercised target %q", prof.Name, f)
				}
			}
		})
	}
}

// TestPickProfileBias: selection prefers the regime with the most
// uncovered targets.
func TestPickProfileBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cov := NewCoverage()
	for _, p := range Profiles() {
		if p.Name == "sharpdiv" {
			continue
		}
		cov.Add(p.Targets)
	}
	// Everything except sharpdiv's unique target is covered.
	for i := 0; i < 4; i++ {
		if got := PickProfile(cov, rng); got.Name != "sharpdiv" {
			t.Fatalf("PickProfile = %s, want sharpdiv", got.Name)
		}
	}
	// Fully covered: rotation must still return some profile.
	cov.Add(Profiles()[3].Targets)
	if got := PickProfile(cov, rng); got.Name == "" {
		t.Fatal("PickProfile returned empty profile")
	}
}

// TestReproRoundTrip: encode → decode preserves the executable case and
// the content hash; metadata does not perturb the hash.
func TestReproRoundTrip(t *testing.T) {
	c := NewCase(5, Profiles()[0], 10, 2)
	r := NewRepro(c, nil)
	r.Profile, r.Seed, r.Note = "baseline", 5, "round-trip"
	back, err := r.Case()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Graph.Nodes) != len(c.Graph.Nodes) ||
		len(back.Graph.Regs) != len(c.Graph.Regs) ||
		back.Cycles != c.Cycles || back.Lanes != c.Lanes || back.StimSeed != c.StimSeed {
		t.Fatalf("round trip changed the case: %+v vs %+v", back, c)
	}
	for i := range c.Graph.Nodes {
		x, y := &c.Graph.Nodes[i], &back.Graph.Nodes[i]
		if x.Kind != y.Kind || x.Op != y.Op || x.Width != y.Width || x.Val != y.Val {
			t.Fatalf("node %d changed in round trip", i)
		}
	}
	plain := NewRepro(c, nil)
	if plain.Hash() != r.Hash() {
		t.Fatal("provenance metadata perturbed the content hash")
	}
}

// TestCorpusWriteLoad: content-addressed persistence dedupes and reloads.
func TestCorpusWriteLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	c := NewCase(7, Profiles()[1], 8, 1)
	r := NewRepro(c, nil)
	p1, existed, err := WriteCorpus(dir, r)
	if err != nil || existed {
		t.Fatalf("first write: path=%s existed=%v err=%v", p1, existed, err)
	}
	p2, existed, err := WriteCorpus(dir, r)
	if err != nil || !existed || p2 != p1 {
		t.Fatalf("second write: path=%s existed=%v err=%v", p2, existed, err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("load: %d entries, err=%v", len(entries), err)
	}
	if _, err := entries[0].Repro.Case(); err != nil {
		t.Fatalf("loaded repro does not reconstruct: %v", err)
	}
	if none, err := LoadCorpus(filepath.Join(dir, "missing")); err != nil || none != nil {
		t.Fatalf("missing dir should be an empty corpus, got %v/%v", none, err)
	}
}

// TestInjectedDefectShrinks is the end-to-end validation the tentpole
// demands: arm the deliberate engine defect, confirm the matrix catches
// it, and assert the shrinker converges to a minimal repro that still
// reproduces — then confirm the repro goes quiet once the defect is
// disarmed (the corpus-replay contract).
func TestInjectedDefectShrinks(t *testing.T) {
	disarm := faultinject.Arm(faultinject.EngineDefect,
		faultinject.Always(func() error { return errors.New("defect") }))
	defer disarm()

	c := NewCase(3, Profiles()[0], 16, 3)
	d, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("armed engine defect was not detected by the matrix")
	}

	min, md, stats, err := Shrink(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s; divergence: %s", stats, md)
	if md == nil {
		t.Fatal("shrunk case lost the divergence")
	}
	if min.Cycles != 1 {
		t.Errorf("shrunk cycles = %d, want 1 (defect fires every dispatch)", min.Cycles)
	}
	if min.Lanes != 1 {
		t.Errorf("shrunk lanes = %d, want 1 (defect corrupts lane 0)", min.Lanes)
	}
	if len(min.Graph.Regs) != 1 {
		t.Errorf("shrunk registers = %d, want 1 (defect flips one register bit)", len(min.Graph.Regs))
	}
	if got := len(min.Graph.Nodes); got > 6 {
		t.Errorf("shrunk graph has %d nodes, want a handful", got)
	}

	// The minimal repro survives a JSON round trip and still reproduces.
	r := NewRepro(min, md)
	back, err := r.Case()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := back.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if rd == nil {
		t.Fatal("round-tripped minimal repro no longer diverges")
	}

	// Disarmed, the repro must go quiet: that is what corpus replay asserts.
	disarm()
	qd, err := back.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if qd != nil {
		t.Fatalf("repro still diverges after disarm: %s", qd)
	}
}

// TestExecuteBulkAgrees: run in bulk chunks, k=0 and k=1 included, every
// leg stays bit-exact with the per-cycle references (the RU session on lane
// 0, StepReference on the others) on a couple of seeds.
func TestExecuteBulkAgrees(t *testing.T) {
	chunks := []int64{1, 3, 0, 5, 2}
	for _, seed := range []int64{2, 9} {
		c := NewCase(seed, Profiles()[0], 16, 3)
		d, err := c.Execute(chunks...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Fatalf("seed %d: bulk divergence: %s", seed, d)
		}
	}
}

// TestShrinkRejectsCleanCase: shrinking a non-diverging case errors.
func TestShrinkRejectsCleanCase(t *testing.T) {
	c := NewCase(1, Profiles()[0], 4, 1)
	if _, _, _, err := Shrink(c); err == nil {
		t.Fatal("Shrink accepted a non-diverging case")
	}
}

// TestDecodeRejectsGarbage: corpus decoding validates structurally.
func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []Repro{
		{Version: 99, Cycles: 1, Lanes: 1},
		{Version: reproVersion, Cycles: 0, Lanes: 1},
		{Version: reproVersion, Cycles: 1, Lanes: 1,
			Graph: reproGraph{Nodes: []reproNode{{Kind: "op", Op: "bogus", Width: 1}}}},
		{Version: reproVersion, Cycles: 1, Lanes: 1,
			Graph: reproGraph{Nodes: []reproNode{{Kind: "mystery", Width: 1}}}},
		{Version: reproVersion, Cycles: 1, Lanes: 1,
			Graph: reproGraph{
				Nodes: []reproNode{{Kind: "reg", Width: 4, Name: "r"}},
				Regs:  []reproReg{{Node: 0, Next: -1, Init: 0}},
			}},
	}
	for i, r := range bad {
		if _, err := r.Case(); err == nil {
			t.Errorf("bad repro %d decoded without error", i)
		}
	}
}

// TestDecodeRejectsMisnamedNodes: a repro whose input ports or register
// entries name a node out of range, a node of another kind, or a node named
// twice, or that has an input node no port names, decodes to an error — which is what `rteaal-fuzz -replay` reports —
// never to a panic in Validate or to a case that panics when it is run.
func TestDecodeRejectsMisnamedNodes(t *testing.T) {
	in := reproNode{Kind: "input", Width: 4, Name: "x"}
	reg := reproNode{Kind: "reg", Width: 4, Name: "r"}
	k := reproNode{Kind: "const", Width: 4, Val: 1}
	for name, g := range map[string]reproGraph{
		"register node out of range":   {Nodes: []reproNode{reg}, Regs: []reproReg{{Node: 7, Next: 0}}},
		"register next out of range":   {Nodes: []reproNode{reg}, Regs: []reproReg{{Node: 0, Next: 7}}},
		"register node not a register": {Nodes: []reproNode{reg, k}, Regs: []reproReg{{Node: 0, Next: 0}, {Node: 1, Next: 0}}},
		"register named twice":         {Nodes: []reproNode{reg}, Regs: []reproReg{{Node: 0, Next: 0}, {Node: 0, Next: 0}}},
		"input out of range":           {Nodes: []reproNode{in}, Inputs: []reproPort{{Name: "x", Node: 9}}},
		"input on a constant":          {Nodes: []reproNode{in, k}, Inputs: []reproPort{{Name: "x", Node: 0}, {Name: "y", Node: 1}}},
		"input named twice":            {Nodes: []reproNode{in}, Inputs: []reproPort{{Name: "x", Node: 0}, {Name: "y", Node: 0}}},
		"input no port names":          {Nodes: []reproNode{in}, Outputs: []reproPort{{Name: "y", Node: 0}}},
	} {
		r := Repro{Version: reproVersion, Cycles: 1, Lanes: 1, Graph: g}
		if _, err := r.Case(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestShrinkPreservesInput: the shrinker never mutates the caller's case.
func TestShrinkPreservesInput(t *testing.T) {
	disarm := faultinject.Arm(faultinject.EngineDefect,
		faultinject.Always(func() error { return errors.New("defect") }))
	defer disarm()
	c := NewCase(4, Profiles()[0], 8, 2)
	nodes, regs, outs := len(c.Graph.Nodes), len(c.Graph.Regs), len(c.Graph.Outputs)
	var kinds []dfg.Kind
	for i := range c.Graph.Nodes {
		kinds = append(kinds, c.Graph.Nodes[i].Kind)
	}
	if _, _, _, err := Shrink(c); err != nil {
		t.Fatal(err)
	}
	if len(c.Graph.Nodes) != nodes || len(c.Graph.Regs) != regs || len(c.Graph.Outputs) != outs {
		t.Fatal("Shrink mutated the input graph's shape")
	}
	for i := range c.Graph.Nodes {
		if c.Graph.Nodes[i].Kind != kinds[i] {
			t.Fatalf("Shrink mutated node %d of the input graph", i)
		}
	}
}

// inlinedAtRunBoundary reports whether some layer of the case's optimised
// tensor has a Bits, Cat or Mux operation as the last of one run directly
// followed by another of those as the first of the next run. On a tensor
// from oim.Build a run ends exactly where the operation type changes.
func inlinedAtRunBoundary(t *testing.T, c *Case) bool {
	t.Helper()
	_, ten, err := compile(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	inlined := func(r oim.Run) bool {
		switch ten.OpTable[r.Sig].Op {
		case wire.Bits, wire.Cat, wire.Mux:
			return true
		}
		return false
	}
	start := 0
	for _, end := range ten.LayerEnds {
		for ru := start + 1; ru < int(end); ru++ {
			if inlined(ten.Runs[ru-1]) && inlined(ten.Runs[ru]) {
				return true
			}
		}
		start = int(end)
	}
	return false
}

// TestInlinedOpsAtRunBoundaries: the swizzled kernels write run k's results
// at LI[first+k] with Bits, Cat and Mux evaluated inline; an off-by-one in
// that index would only show where one of their runs meets the next. Each
// of the profiles that emit them must produce such a meeting, and the full
// matrix (NU, PSU and IU legs included) must stay bit-exact on it, stepped
// and in bulk.
func TestInlinedOpsAtRunBoundaries(t *testing.T) {
	want := map[string]bool{"wide64": true, "shiftcat": true, "muxchain": true}
	for _, prof := range Profiles() {
		if !want[prof.Name] {
			continue
		}
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			var c *Case
			for seed := int64(1); seed <= 32 && c == nil; seed++ {
				if cand := NewCase(seed, prof, 12, 2); inlinedAtRunBoundary(t, cand) {
					c = cand
				}
			}
			if c == nil {
				t.Fatal("no seed in 1..32 puts a Bits/Cat/Mux run next to another")
			}
			if d, err := c.Execute(); err != nil || d != nil {
				t.Fatalf("stepped: divergence %v, err %v", d, err)
			}
			if d, err := c.Execute(1, 4, 0, 7); err != nil || d != nil {
				t.Fatalf("bulk: divergence %v, err %v", d, err)
			}
		})
	}
}
