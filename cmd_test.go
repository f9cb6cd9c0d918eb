// Smoke tests of the four cmd/ binaries: each is built once and run through
// one cheap invocation, so a flag, an exit code or a printed artefact that
// changes is seen by tier-1 rather than by whoever types the command next.
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
		{name: "rteaal", args: []string{"-list-kernels"}, exit: []int{0},
			stdout: "RU\nOU\nNU\nPSU\nIU\nSU\nTI\n"},
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
	// rteaal runs one bulk Testbench.Run without -watch and one-cycle runs
	// with it; on a partitioned session those are the resident lock-step loop
	// and a dispatch per cycle, and both must end in the same state.
	t.Run("rteaal watch-vs-bulk", func(t *testing.T) {
		fir := filepath.Join(bin, "pair.fir")
		if err := os.WriteFile(fir, []byte(pairSrc), 0o644); err != nil {
			t.Fatal(err)
		}
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
