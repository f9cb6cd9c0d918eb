package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// SourceHash returns the deterministic identity of one compilation: a
// SHA-256 over the normalized FIRRTL source text and every compile option
// that changes the produced [Design]. Two calls agree exactly when
// [Compile] would produce interchangeable designs, so the hash is the cache
// key that lets a serving layer compile a design once *across users* —
// clients presenting byte-different but semantically identical sources
// (line endings, trailing whitespace) still share one entry, while any
// option that alters the compiled artifact (kernel, optimisation passes,
// partitioning, batch sharding, waveform retention) forks the key.
//
// The hash is computed without compiling; invalid options surface when the
// source is actually compiled, not here.
func SourceHash(src string, opts ...Option) string {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	h := sha256.New()
	// The option fingerprint is versioned field-by-field: every field is
	// written explicitly so adding a compile option forces a conscious
	// decision here (and a hash break only when the new field is used).
	fmt.Fprintf(h, "rteaal/design/v1\nkernel=%s\n", cfg.kernel)
	fmt.Fprintf(h, "passes=%t,%t,%t,%t,%t,%t\n",
		cfg.passes.ConstFold, cfg.passes.CopyProp, cfg.passes.CSE,
		cfg.passes.MuxChainFuse, cfg.passes.DCE, cfg.passes.SweepRegs)
	fmt.Fprintf(h, "waveform=%t\nunoptFormat=%t\n", cfg.waveform, cfg.unoptFormat)
	fmt.Fprintf(h, "partitions=%d\nstrategy=%s\n", cfg.partitions, cfg.strategy)
	fmt.Fprintf(h, "batchWorkers=%d\nbatchPacking=%t\n--\n", cfg.batchWorkers, cfg.batchPacking)
	h.Write([]byte(normalizeSource(src)))
	return hex.EncodeToString(h.Sum(nil))
}

// normalizeSource canonicalises the representation-only degrees of freedom
// of FIRRTL text: line endings become \n, trailing whitespace per line is
// dropped, and trailing blank lines are dropped. Leading whitespace is
// untouched — FIRRTL is indentation-sensitive — so the normalization can
// never merge two circuits that elaborate differently.
func normalizeSource(src string) string {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	src = strings.ReplaceAll(src, "\r", "\n")
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	out := strings.Join(lines, "\n")
	return strings.TrimRight(out, "\n") + "\n"
}
