// Smoke tests of the four cmd/ binaries and the eight examples: each is
// built once and run through one cheap invocation, so a flag, an exit code
// or a printed artefact that changes is seen by tier-1 rather than by
// whoever types the command next.
package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestCmdBinariesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the four cmd/ binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	cases := []struct {
		name       string // subtest name; its first word is the binary
		args       []string
		exit       []int    // accepted exit codes
		stdout     string   // exact stdout, when non-empty
		wantOutput []string // substrings of stdout+stderr
	}{
		// The kernel is chosen only where the §5.2 ladder is measured.
		{name: "rteaal", args: []string{"-kernel", "PSU"}, exit: []int{2},
			wantOutput: []string{"flag provided but not defined: -kernel"}},
		{name: "rteaal-gen", args: []string{"-family", "sha3", "-scale", "32", "-check"}, exit: []int{0},
			wantOutput: []string{"circuit ", "check ok: sha3 recompiles to "}},
		{name: "rteaal-fuzz", args: []string{"-replay", "testdata/diffcorpus"}, exit: []int{0},
			wantOutput: []string{"ok testdata/diffcorpus/", "corpus entries quiet"}},
		// flag's -h exit code is 0 on current toolchains and was 2 before.
		{name: "rteaal-serve", args: []string{"-h"}, exit: []int{0, 2},
			wantOutput: []string{"Usage of ", "-addr string"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, strings.Fields(tc.name)[0]), tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			if !slices.Contains(tc.exit, code) {
				t.Errorf("exit code %d, want one of %v\nstderr:\n%s", code, tc.exit, stderr.String())
			}
			if tc.stdout != "" && stdout.String() != tc.stdout {
				t.Errorf("stdout differs from the pinned output (%d bytes, want %d):\n%s",
					stdout.Len(), len(tc.stdout), stdout.String())
			}
			all := stdout.String() + stderr.String()
			for _, want := range tc.wantOutput {
				if !strings.Contains(all, want) {
					t.Errorf("output missing %q:\n%s", want, all)
				}
			}
		})
	}
	fir := filepath.Join(bin, "pair.fir")
	if err := os.WriteFile(fir, []byte(pairSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	// rteaal compiles sim's default kernel and names it.
	t.Run("rteaal default kernel", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "rteaal"), "-cycles", "5", fir).CombinedOutput()
		if err != nil {
			t.Fatalf("rteaal: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "simulated 5 cycles with kernel IU ") {
			t.Errorf("summary does not name the default kernel IU:\n%s", out)
		}
	})
	// rteaal runs one bulk Testbench.Run without -watch and one-cycle runs
	// with it; on a partitioned session those are the resident lock-step loop
	// and a dispatch per cycle, and both must end in the same state.
	t.Run("rteaal watch-vs-bulk", func(t *testing.T) {
		final := func(extra ...string) string {
			args := append([]string{"-partitions", "2", "-seed", "7", "-cycles", "40"}, extra...)
			out, err := exec.Command(filepath.Join(bin, "rteaal"), append(args, fir)...).CombinedOutput()
			if err != nil {
				t.Fatalf("rteaal %v: %v\n%s", args, err, out)
			}
			_, after, ok := strings.Cut(string(out), "simulated 40 cycles")
			if !ok {
				t.Fatalf("rteaal %v printed no summary:\n%s", args, out)
			}
			return after
		}
		bulk, watched := final(), final("-watch", "a,rb")
		// The rest of the summary line, then one line per output.
		if bulk != watched || strings.Count(bulk, "\n") != 3 {
			t.Errorf("final outputs differ:\n--- without -watch ---\n%s\n--- with -watch ---\n%s", bulk, watched)
		}
	})
}

// TestExamplesRun builds the examples once and holds each to what it
// claims: the deterministic ones print exactly their pinned output, and the
// timed ones (repcut, ablation) print their state checks as true.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the eight examples")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	run := func(t *testing.T, name, dir string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name))
		// batch shards its lanes over min(4, GOMAXPROCS) workers and says so.
		cmd.Dir, cmd.Env = dir, append(os.Environ(), "GOMAXPROCS=2")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		return string(out)
	}
	for name, want := range exampleOutputs {
		t.Run(name, func(t *testing.T) {
			if got := run(t, name, bin); got != want {
				t.Errorf("output differs from the pinned output:\n%s", got)
			}
		})
	}
	t.Run("repcut", func(t *testing.T) {
		out := run(t, "repcut", bin)
		if n := strings.Count(out, "state match: true\n"); n != 6 {
			t.Errorf("want six partitionings that match the sequential state, got %d:\n%s", n, out)
		}
	})
	t.Run("serve", func(t *testing.T) {
		if out := run(t, "serve", bin); !strings.Contains(out, "cached=true (same hash: true)") {
			t.Errorf("the recompile missed the cache:\n%s", out)
		}
	})
	t.Run("waveform", func(t *testing.T) {
		dir := t.TempDir()
		run(t, "waveform", dir)
		vcd, err := os.ReadFile(filepath.Join(dir, "blinker.vcd"))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"$var wire 1 ! led $end", "$enddefinitions $end\n#0\n$dumpvars"} {
			if !bytes.Contains(vcd, []byte(want)) {
				t.Errorf("blinker.vcd lacks %q:\n%s", want, vcd)
			}
		}
	})
	t.Run("ablation", func(t *testing.T) {
		if out := run(t, "ablation", bin); !strings.Contains(out, "all 7 kernels end in the same register state: true\n") {
			t.Errorf("the kernels disagree, or the agreement line is missing:\n%s", out)
		}
	})
}

// exampleOutputs pins the examples whose output is deterministic. Every
// kernel prints the same, so it does not move with sim's default.
var exampleOutputs = map[string]string{
	"quickstart": `compiled "Fibonacci": 4 ops in 3 layers, OIM density 3.37e-03
cycle  1: fib = 0
cycle  2: fib = 1
cycle  3: fib = 1
cycle  4: fib = 2
cycle  5: fib = 3
cycle  6: fib = 5
cycle  7: fib = 8
cycle  8: fib = 13
cycle  9: fib = 21
cycle 10: fib = 34
`,
	"testbench": `signals: [in_data in_valid out_ready out_sum reset rv sum]

sent 100 (2 cycles)  ->  sum = 100
sent  20 (2 cycles)  ->  sum = 120
sent   3 (2 cycles)  ->  sum = 123
register "sum" (register) = 123 at cycle 6

lane 0: sum after 10 cycles = 5
lane 1: sum after 10 cycles = 10
lane 2: sum after 10 cycles = 15
lane 3: sum after 10 cycles = 20
`,
	"gemmini": `C = A x B streamed through the mesh:
  C[0][0] =   10 (ok)
  C[0][1] =    8 (ok)
  C[0][2] =    8 (ok)
  C[0][3] =   13 (ok)
  C[1][0] =   26 (ok)
  C[1][1] =   20 (ok)
  C[1][2] =   20 (ok)
  C[1][3] =   29 (ok)
  C[2][0] =   42 (ok)
  C[2][1] =   32 (ok)
  C[2][2] =   32 (ok)
  C[2][3] =   45 (ok)
  C[3][0] =   58 (ok)
  C[3][1] =   44 (ok)
  C[3][2] =   44 (ok)
  C[3][3] =   61 (ok)
`,
	"batch": `sweeping 8 gains on "Mac" with 2 lane workers
  gain 1: acc =   55
  gain 2: acc =  110
  gain 3: acc =  165
  gain 4: acc =  220
  gain 5: acc =  275
  gain 6: acc =  330
  gain 7: acc =  385
  gain 8: acc =  440
`,
}

// pairSrc is two dependent registers, so -partitions 2 has a cut to exchange.
const pairSrc = `
circuit Pair :
  module Pair :
    input clock : Clock
    input in : UInt<8>
    output a : UInt<8>
    output b : UInt<8>
    reg ra : UInt<8>, clock
    reg rb : UInt<8>, clock
    ra <= tail(add(ra, in), 1)
    rb <= xor(rb, ra)
    a <= ra
    b <= rb
`
