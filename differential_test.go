// Cross-engine differential testing: random designs × random stimulus,
// stepped through every execution engine the repository ships — scalar
// session, RepCut-partitioned sessions, the sim batch (sequential and
// lane-sharded), the wide batch schedule (sequential and lane-sharded), and
// the batch's reference loop (StepReference) — asserting bit-exact output
// and register traces. This is the GSIM/Manticore-style validation
// discipline: the parallel and specialised engines are only trusted because
// a reference semantics keeps re-checking them on inputs nobody hand-picked.
//
// The harness itself lives in internal/difftest and is shared with the
// continuous fuzz driver (cmd/rteaal-fuzz), which adds coverage-biased
// generation, automatic shrinking, and a persistent corpus. These tests are
// the tier-1 slice of the same machinery: a fixed seeded sweep across every
// generation profile, a bulk-run-vs-stepped parity leg, the control-fabric
// design the packed batch exists for, and a replay of every repro committed
// under testdata/diffcorpus.
package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"rteaal/internal/difftest"
	"rteaal/internal/gen"
)

const (
	diffSeedsPerProfile = 4
	diffCycles          = 24
	diffLanes           = 3
)

// reproLine is printed on failure so one case reruns in isolation — and
// points at the fuzz driver, which shrinks and persists it.
func reproLine(c *difftest.Case, prof string, seed int64) string {
	return fmt.Sprintf("repro: go test -run 'TestDifferentialCrossEngine/%s/seed=%d' . "+
		"(cycles=%d lanes=%d stim_seed=%d); shrink it with: go run ./cmd/rteaal-fuzz",
		prof, seed, c.Cycles, c.Lanes, c.StimSeed)
}

// TestDifferentialCrossEngine sweeps a fixed seed range through every
// generation profile (baseline, wide64, shiftcat, sharpdiv, muxchain,
// onebit, and the fixed commitmoves design): each case replays the same (cycle, lane, input)-hashed stimulus
// on all fifteen engine shapes and must produce bit-exact per-lane output and
// register traces.
func TestDifferentialCrossEngine(t *testing.T) {
	for _, prof := range difftest.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			for seed := int64(0); seed < diffSeedsPerProfile; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					c := difftest.NewCase(seed, prof, diffCycles, diffLanes)
					d, err := c.Execute()
					if err != nil {
						t.Fatalf("execute: %v\n%s", err, reproLine(c, prof.Name, seed))
					}
					if d != nil {
						t.Fatalf("%v\n%s", d, reproLine(c, prof.Name, seed))
					}
				})
			}
		})
	}
}

// TestDifferentialBulkRun is the Run(k)-vs-k×Step leg: every engine shape
// is advanced in bulk-run chunks (including k=0 and k=1 degenerate chunks),
// driving the stimulus inside its own run loop at every cycle, and its state
// at each chunk boundary must match the per-cycle references — the RU
// session on lane 0 and StepReference, poked from the host cycle by cycle,
// on every other lane. So the resident run loops (batch free-run,
// partitioned barrier loop, session funnel) and the stimulus they drive are
// pinned to the paper's equations one cycle at a time.
func TestDifferentialBulkRun(t *testing.T) {
	chunks := []int64{1, 3, 0, 5, 2, 7, 4}
	// Eight seeds rotate through the random profiles; a fixed design runs once.
	var random, picks []difftest.Profile
	for _, prof := range difftest.Profiles() {
		if prof.Graph == nil {
			random = append(random, prof)
		}
	}
	for seed := 0; seed < 8; seed++ {
		picks = append(picks, random[seed%len(random)])
	}
	for _, prof := range difftest.Profiles() {
		if prof.Graph != nil {
			picks = append(picks, prof)
		}
	}
	for i, prof := range picks {
		seed, prof := int64(i), prof
		t.Run(fmt.Sprintf("%s/seed=%d", prof.Name, seed), func(t *testing.T) {
			t.Parallel()
			c := difftest.NewCase(seed, prof, diffCycles, diffLanes)
			d, err := c.Execute(chunks...)
			if err != nil {
				t.Fatalf("execute bulk: %v\n%s", err, reproLine(c, prof.Name, seed))
			}
			if d != nil {
				t.Fatalf("bulk chunks %v: %v\n%s", chunks, d, reproLine(c, prof.Name, seed))
			}
		})
	}
}

// TestDifferentialControlFabric runs the benchmark's ctrl_batch_packed
// design family at test size per cycle and in bulk chunks: a 1-bit arbiter fabric is
// the one shape where nearly every slot stays packed, so the word-wide Or
// and Mux bodies and the packed staged commit — which the random profiles
// rarely reach — are cross-checked against every other engine. 70 lanes
// leave the second packed word partial.
func TestDifferentialControlFabric(t *testing.T) {
	g, err := gen.Generate(gen.Spec{Family: gen.Ctrl, Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := &difftest.Case{Graph: g, Cycles: diffCycles, Lanes: 70, StimSeed: 1}
	d, err := c.Execute()
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if d != nil {
		t.Fatal(d)
	}
	chunks := []int64{1, 3, 0, 5, 2, 7, 4}
	if d, err = c.Execute(chunks...); err != nil {
		t.Fatalf("execute bulk: %v", err)
	}
	if d != nil {
		t.Fatalf("bulk chunks %v: %v", chunks, d)
	}
}

// TestDiffCorpusReplay replays every shrunk repro committed under
// testdata/diffcorpus. Each entry is a minimal case that once exposed a
// divergence (the JSON records which engines disagreed and where); the
// engines must now agree on it, so a fixed bug that regresses fails here
// with the original coordinates before the fuzzer has to rediscover it.
func TestDiffCorpusReplay(t *testing.T) {
	entries, err := difftest.LoadCorpus(filepath.Join("testdata", "diffcorpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Skip("no corpus entries committed")
	}
	for _, e := range entries {
		e := e
		t.Run(filepath.Base(e.Path), func(t *testing.T) {
			t.Parallel()
			c, err := e.Repro.Case()
			if err != nil {
				t.Fatalf("corrupt corpus entry: %v", err)
			}
			d, err := c.Execute()
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if d != nil {
				t.Fatalf("corpus regression %s: %v (originally %v)",
					e.Path, d, e.Repro.Divergence)
			}
		})
	}
}
