package sim_test

import (
	"bytes"
	"strings"
	"testing"

	"rteaal/sim"
)

// TestSourceHashNormalization: representation-only differences — CRLF line
// endings, trailing whitespace, trailing blank lines — must not fork the
// cache key, while any semantic edit, or a lone CR, must.
func TestSourceHashNormalization(t *testing.T) {
	base := sim.SourceHash(counterSrc)
	if base == "" || len(base) != 64 {
		t.Fatalf("SourceHash = %q, want 64 hex chars", base)
	}
	crlf := strings.ReplaceAll(counterSrc, "\n", "\r\n")
	if got := sim.SourceHash(crlf); got != base {
		t.Errorf("CRLF source hashes differently: %s vs %s", got, base)
	}
	// A lone CR is a blank to the lexer, not a line ending: the CR-only
	// form is one line that does not compile, so it must not share the
	// LF form's key (and a cached failure of it must not answer the LF form).
	cr := strings.ReplaceAll(counterSrc, "\n", "\r")
	if got := sim.SourceHash(cr); got == base {
		t.Error("CR-only source hashes like the LF source")
	}
	if _, err := sim.Compile(cr); err == nil {
		t.Error("CR-only source compiled; the lexer should read it as one line")
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

// noteSrc has a comment: a lone CR after it is a blank inside the comment,
// so the next statement stays commented out, where a line ending would
// make it connect y a second time.
const noteSrc = `
circuit Note :
  module Note :
    input clock : Clock
    input a : UInt<8>
    output y : UInt<8>
    y <= a ; the line below is live only after a line ending
    y <= not(a)
`

// editLineEnds rewrites each line end of src as edits says, one byte per
// line: the low two bits pick LF, CRLF, a lone CR or LF, and the next two
// append no blanks, a space, a tab or " \t " before it. A byte past the
// last line appends up to three blank lines.
func editLineEnds(src string, edits []byte) string {
	edit := func(i int) byte {
		if i < len(edits) {
			return edits[i]
		}
		return 0
	}
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines[:len(lines)-1] {
		b.WriteString(l)
		b.WriteString([]string{"", " ", "\t", " \t "}[edit(i)>>2&3])
		b.WriteString([]string{"\n", "\r\n", "\r", "\n"}[edit(i)&3])
	}
	b.WriteString(lines[len(lines)-1])
	b.WriteString(strings.Repeat("\n", int(edit(len(lines)-1)%4)))
	return b.String()
}

// FuzzSourceHash holds SourceHash to what it promises a cache: two sources
// with one hash compile alike. Each input edits one seed source's line
// ends twice, and when the two edits hash the same, both must fail to
// compile, or both must compile to the same WriteOIM bytes.
func FuzzSourceHash(f *testing.F) {
	sources := []string{counterSrc, pairSrc, noteSrc}
	cr := func(line int) []byte { e := make([]byte, line+1); e[line] = 2; return e }
	f.Add(uint8(0), []byte{}, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(1), []byte{5, 9, 13, 0, 4}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(uint8(0), []byte{}, []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(uint8(2), []byte{}, cr(6))
	f.Fuzz(func(t *testing.T, seed uint8, ea, eb []byte) {
		src := sources[int(seed)%len(sources)]
		a, b := editLineEnds(src, ea), editLineEnds(src, eb)
		if sim.SourceHash(a) != sim.SourceHash(b) {
			return
		}
		oa, errA := compileOIM(a)
		ob, errB := compileOIM(b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("one hash, two outcomes:\n%q: %v\n%q: %v", a, errA, b, errB)
		}
		if !bytes.Equal(oa, ob) {
			t.Fatalf("one hash, two OIMs:\n%q\n%q", a, b)
		}
	})
}

func compileOIM(src string) ([]byte, error) {
	d, err := sim.Compile(src)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = d.WriteOIM(&buf)
	return buf.Bytes(), err
}
