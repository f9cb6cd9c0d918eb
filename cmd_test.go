// Smoke tests of the five cmd/ binaries: each is built once and run through
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
		t.Skip("builds and runs the five cmd/ binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	// rteaal-bench's model is deterministic, so its whole output is pinned.
	// The golden file was generated at f4ede73, before the -json recorder
	// was removed from internal/bench.
	golden, err := os.ReadFile("cmd/rteaal-bench/testdata/all_scale32.golden")
	if err != nil {
		t.Fatal(err)
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
		{name: "rteaal-bench all", args: []string{"-scale", "32", "all"}, exit: []int{0},
			stdout: string(golden)},
		{name: "rteaal-bench removed-subcommand", args: []string{"throughput"}, exit: []int{1},
			wantOutput: []string{`unknown experiment "throughput"`}},
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
}
