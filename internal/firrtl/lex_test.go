package firrtl

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rteaal/internal/gen"
)

// lex is the oracle the streaming lexer is held to: the whole source to a
// token slice in one pass, stopping at the first lexical error with the
// tokens before it.
func lex(src string) ([]token, error) {
	l := &sliceLexer{src: src, line: 1, col: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.emit(tokNewline, "\n")
			l.pos++
			l.line++
			l.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
			l.col++
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '(':
			l.emit(tokLParen, "(")
			l.advance(1)
		case c == ')':
			l.emit(tokRParen, ")")
			l.advance(1)
		case c == '<':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tokConnect, "<=")
				l.advance(2)
			} else {
				l.emit(tokLAngle, "<")
				l.advance(1)
			}
		case c == '>':
			l.emit(tokRAngle, ">")
			l.advance(1)
		case c == ':':
			l.emit(tokColon, ":")
			l.advance(1)
		case c == ',':
			l.emit(tokComma, ",")
			l.advance(1)
		case c == '.':
			l.emit(tokDot, ".")
			l.advance(1)
		case c == '=':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
				l.emit(tokFatArrow, "=>")
				l.advance(2)
			} else {
				l.emit(tokEq, "=")
				l.advance(1)
			}
		case c == '"':
			end := strings.IndexByte(l.src[l.pos+1:], '"')
			if end < 0 {
				return l.toks, fmt.Errorf("firrtl:%d:%d: unterminated string", l.line, l.col)
			}
			l.emit(tokString, l.src[l.pos+1:l.pos+1+end])
			l.advance(end + 2)
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			l.emitAt(tokInt, l.src[start:l.pos], l.col)
			l.col += l.pos - start
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.emitAt(tokIdent, l.src[start:l.pos], l.col)
			l.col += l.pos - start
		default:
			return l.toks, fmt.Errorf("firrtl:%d:%d: unexpected character %q", l.line, l.col, c)
		}
	}
	l.emit(tokNewline, "\n")
	l.emit(tokEOF, "")
	return l.toks, nil
}

type sliceLexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

func (l *sliceLexer) emit(k tokKind, text string) { l.emitAt(k, text, l.col) }

func (l *sliceLexer) emitAt(k tokKind, text string, col int) {
	// Collapse runs of newlines.
	if k == tokNewline && len(l.toks) > 0 && l.toks[len(l.toks)-1].kind == tokNewline {
		return
	}
	l.toks = append(l.toks, token{kind: k, text: text, line: l.line, col: col})
}

func (l *sliceLexer) advance(n int) {
	l.pos += n
	l.col += n
}

// checkLexerMatchesOracle drains the streaming lexer over src and holds it
// to lex: the same (kind, text, line, col) sequence through tokEOF, or the
// same first error. It also holds Parse to the oracle's error precedence: a
// source with a lexical error fails Parse with exactly that error.
func checkLexerMatchesOracle(t *testing.T, src string) {
	t.Helper()
	want, wantErr := lex(src)
	l := newLexer(src)
	var got []token
	var err error
	for len(got) <= len(want) {
		var tok token
		if tok, err = l.next(); err != nil {
			break
		}
		if got = append(got, tok); tok.kind == tokEOF {
			break
		}
	}
	if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		at := func(ts []token) string {
			if i == len(ts) {
				return "no token"
			}
			return fmt.Sprintf("kind %d %q at %d:%d", ts[i].kind, ts[i].text, ts[i].line, ts[i].col)
		}
		t.Fatalf("lexer and oracle part at token %d: %s then error %v, oracle %s then %v", i, at(got), err, at(want), wantErr)
	}
	if wantErr != nil {
		if _, err := Parse(src); fmt.Sprint(err) != wantErr.Error() {
			t.Fatalf("Parse error %v, want the lexical error %v", err, wantErr)
		}
	}
}

// r18Source is rocket at one core and scale 8 as FIRRTL text.
var r18Source = sync.OnceValues(func() (string, error) {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8})
	if err != nil {
		return "", err
	}
	return Emit(g)
})

func r18(tb testing.TB) string {
	tb.Helper()
	src, err := r18Source()
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// committedSeeds reads FuzzParse's committed corpus.
func committedSeeds(t *testing.T) map[string]string {
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed FuzzParse corpus (%v)", err)
	}
	seeds := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, v, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(v, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seeds[filepath.Base(f)] = s
	}
	return seeds
}

// TestLexerMatchesOracle holds the streaming lexer to lex on FuzzParse's
// seeds, its committed corpus, r1/8 and a few edge sources.
func TestLexerMatchesOracle(t *testing.T) {
	cases := committedSeeds(t)
	for i, s := range parseSeeds {
		cases[fmt.Sprintf("seed %d", i)] = s
	}
	cases["r1/8"] = r18(t)
	for name, src := range map[string]string{
		"empty":               "",
		"newlines only":       "\n\n\r\n",
		"comment at eof":      "circuit C : ; trailing",
		"angle then eof":      "x <",
		"equals then eof":     "x =",
		"string literals":     "y <= UInt<8>(\"hff\") ; c\nz <= \"\" \"a b\"",
		"unterminated":        "node a = UInt<8>(\"h12",
		"punctuation":         "a-b",
		"reg with reset":      "reg r : UInt<8>, clock with : (reset => (rst, UInt<8>(0)))\nr <= r",
		"bad byte late":       "circuit T :\n  module T :\n    skip\n    node y = x @\n",
		"high bytes":          "a\xaab \xb5c\xc3\xa9 \xba",
		"high byte non-ident": "a\x80b",
	} {
		cases[name] = src
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { checkLexerMatchesOracle(t, src) })
	}
}

// allocated is how many bytes f allocates.
func allocated(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocatedPerByte is what f allocates per byte of src.
func allocatedPerByte(src string, f func()) float64 {
	return float64(allocated(f)) / float64(len(src))
}

// TestParseAllocsBounded: Parse allocates the AST, not a token per byte run
// — at most 10 bytes per source byte on r1/8.
func TestParseAllocsBounded(t *testing.T) {
	src := r18(t)
	var err error
	perByte := allocatedPerByte(src, func() { _, err = Parse(src) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Parse of r1/8: %d source bytes, %.1f B allocated per byte", len(src), perByte)
	if perByte > 10 {
		t.Errorf("Parse allocates %.1f B per source byte, want at most 10", perByte)
	}
}

// TestElaborateAllocsBounded: Elaborate builds into storage sized once, with
// one node per distinct constant — at most 6 bytes per source byte on r1/8
// (15.7 when the node array grew by append and every literal was a node).
func TestElaborateAllocsBounded(t *testing.T) {
	src := r18(t)
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	perByte := allocatedPerByte(src, func() { _, err = Elaborate(c) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Elaborate of r1/8: %d source bytes, %.1f B allocated per byte", len(src), perByte)
	if perByte > 6 {
		t.Errorf("Elaborate allocates %.1f B per source byte, want at most 6", perByte)
	}
}

func BenchmarkParse(b *testing.B) {
	src := r18(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElaborate(b *testing.B) {
	src := r18(b)
	c, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Elaborate(c); err != nil {
			b.Fatal(err)
		}
	}
}
