package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
	"rteaal/sim"
)

// artifactDesigns are the designs testdata/artifacts.golden names.
var artifactDesigns = map[string]gen.Spec{
	"r4/8":  {Family: gen.Rocket, Cores: 4, Scale: 8},
	"c2048": {Family: gen.Ctrl, Cores: 2048, Scale: 1},
}

// TestCompiledArtifactsPinned: every line of testdata/artifacts.golden
// ("design artifact value") holds for the design compiled from its FIRRTL
// text, so a frontend or optimiser change that moves one byte of the OIM
// fails here.
func TestCompiledArtifactsPinned(t *testing.T) {
	f, err := os.Open("testdata/artifacts.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[1] != "oim.sha256" {
			t.Fatalf("artifacts.golden: malformed line %q", line)
		}
		design, want := fields[0], fields[2]
		spec, ok := artifactDesigns[design]
		if !ok {
			t.Fatalf("artifacts.golden: unknown design %q", design)
		}
		if got := compiledOIMHash(t, spec); got != want {
			t.Errorf("%s: oim.sha256 %s, want %s", design, got, want)
		}
		pinned[design] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(artifactDesigns) {
		t.Errorf("artifacts.golden pins %d of the %d designs", len(pinned), len(artifactDesigns))
	}
}

func compiledOIMHash(t *testing.T, spec gen.Spec) string {
	t.Helper()
	g, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := firrtl.Emit(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := d.WriteOIM(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
