package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
)

// SourceHash returns the deterministic identity of one compilation: a
// SHA-256 over the normalized FIRRTL source text and the resolved compile
// options. Two calls agree exactly when [Compile] would produce
// interchangeable designs, and that holds by construction: the options
// resolve to a config, the config is all [CompileGraph] reads, and its
// fingerprint writes every field — so the hash is the cache key that lets a
// serving layer compile a design once *across users*. Clients presenting
// byte-different but semantically identical sources (line endings, trailing
// whitespace) or the defaults spelled out still share one entry, while each
// [Option] that takes a non-default value forks the key and compiles another
// artifact. The rule that keeps it so: an option exists when it changes the
// compiled artifact, has a caller in this tree that is not a test, a line in
// fingerprint, and a difftest leg.
//
// The hash is computed without compiling; invalid options surface when the
// source is actually compiled, not here.
func SourceHash(src string, opts ...Option) string {
	h := sha256.New()
	io.WriteString(h, "rteaal/design/v2\n"+resolve(opts).fingerprint()+"--\n")
	io.WriteString(h, normalizeSource(src))
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
