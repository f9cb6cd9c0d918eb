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

// TestSourceHashOptionSensitivity: every compile option that changes the
// produced design must fork the key; repeating the same options must not.
func TestSourceHashOptionSensitivity(t *testing.T) {
	base := sim.SourceHash(counterSrc)
	if again := sim.SourceHash(counterSrc); again != base {
		t.Fatalf("hash not deterministic: %s vs %s", again, base)
	}
	if got := sim.SourceHash(counterSrc, sim.WithKernel(sim.PSU)); got != base {
		t.Errorf("explicit default kernel forked the hash")
	}
	if got := sim.SourceHash(counterSrc, sim.WithBatchPacking(true)); got != base {
		t.Errorf("explicit default batch packing forked the hash")
	}
	if got := sim.SourceHash(counterSrc, sim.WithKernel(sim.PSU), sim.WithOptPasses(sim.DefaultOptPasses())); got != base {
		t.Errorf("the defaults spelled out forked the hash")
	}
	forks := map[string]string{
		"kernel":       sim.SourceHash(counterSrc, sim.WithKernel(sim.TI)),
		"partitions":   sim.SourceHash(counterSrc, sim.WithPartitions(3)),
		"strategy":     sim.SourceHash(counterSrc, sim.WithPartitions(3), sim.WithPartitionStrategy(sim.RoundRobin)),
		"batchWorkers": sim.SourceHash(counterSrc, sim.WithBatchWorkers(4)),
		"batchPacking": sim.SourceHash(counterSrc, sim.WithBatchPacking(false)),
		"waveform":     sim.SourceHash(counterSrc, sim.WithWaveform()),
		"unoptFormat":  sim.SourceHash(counterSrc, sim.WithUnoptimizedFormat()),
		"passes":       sim.SourceHash(counterSrc, sim.WithOptPasses(sim.OptPasses{})),
	}
	seen := map[string]string{base: "default"}
	for name, h := range forks {
		if prev, dup := seen[h]; dup {
			t.Errorf("option %q collides with %q: %s", name, prev, h)
		}
		seen[h] = name
	}
	// Partition count itself is part of the key, not just its presence.
	if forks["partitions"] == sim.SourceHash(counterSrc, sim.WithPartitions(4)) {
		t.Error("partition count does not affect the hash")
	}
}
