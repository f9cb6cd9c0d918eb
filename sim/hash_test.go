package sim_test

import (
	"strings"
	"testing"

	"rteaal/sim"
)

// TestSourceHashNormalization: representation-only differences — CRLF line
// endings, trailing whitespace, trailing blank lines — must not fork the
// cache key, while any semantic edit must.
func TestSourceHashNormalization(t *testing.T) {
	base := sim.SourceHash(counterSrc)
	if base == "" || len(base) != 64 {
		t.Fatalf("SourceHash = %q, want 64 hex chars", base)
	}
	crlf := strings.ReplaceAll(counterSrc, "\n", "\r\n")
	if got := sim.SourceHash(crlf); got != base {
		t.Errorf("CRLF source hashes differently: %s vs %s", got, base)
	}
	trailing := strings.ReplaceAll(counterSrc, "\n", "   \t\n") + "\n\n\n"
	if got := sim.SourceHash(trailing); got != base {
		t.Errorf("trailing-whitespace source hashes differently: %s vs %s", got, base)
	}
	// Leading whitespace is structure in FIRRTL: touching it must fork.
	dedent := strings.Replace(counterSrc, "    c <= ", "   c <= ", 1)
	if dedent == counterSrc {
		t.Fatal("test bug: dedent edit did not apply")
	}
	if got := sim.SourceHash(dedent); got == base {
		t.Error("indentation change did not change the hash")
	}
	semantic := strings.Replace(counterSrc, "UInt<8>(0)", "UInt<8>(1)", 1)
	if got := sim.SourceHash(semantic); got == base {
		t.Error("semantic change did not change the hash")
	}
}
