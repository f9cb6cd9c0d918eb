// Package firrtl implements the frontend of the RTeAAL compiler (§6.1–6.2):
// a lexer, parser, and elaborator for a lowered-FIRRTL subset, producing the
// dataflow graph that tensor extraction consumes, plus an emitter that
// serialises dataflow graphs back to FIRRTL text.
//
// The accepted dialect corresponds to LoFIRRTL as produced by Chisel-style
// flows after lowering: flat modules of ports, wires, registers, nodes,
// instances, and connects — no when-blocks, vectors, or bundles. Signals are
// UInt with explicit widths of 1..64 bits (Clock and Reset ports are
// accepted; clocks are ignored because the simulator is single-clock, §6.2).
// The elaborator declares each instance where it is declared, its signals
// named by instance path ("u.v.r"), so the graph it builds is flat.
// FIRRTL width-growth rules that would exceed 64 bits are capped at 64 with
// wrapping semantics, matching the wire package's masked evaluation.
package firrtl

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent  // identifiers and keywords
	tokInt    // decimal integer
	tokString // "h..." style quoted literal
	tokLParen
	tokRParen
	tokLAngle
	tokRAngle
	tokColon
	tokComma
	tokDot
	tokEq       // =
	tokConnect  // <=
	tokFatArrow // =>
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNewline:
		return "end of line"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer tokenises FIRRTL text on demand: each call to next scans just far
// enough for one token, so no token array is ever built. Comments run from
// ';' to end of line, and a run of newlines is one tokNewline. Indentation is
// not tokenised: the parser recovers structure from keywords, which is
// sufficient for the flat LoFIRRTL dialect. Past the end of the source the
// lexer yields one tokNewline (unless the last token was one), then tokEOF
// for good.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	nl   bool // the last token was a tokNewline
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
			l.col++
		case byteClass[c]&identStart != 0:
			n := 1
			for l.pos+n < len(l.src) && byteClass[l.src[l.pos+n]]&identPart != 0 {
				n++
			}
			return l.emit(tokIdent, n), nil
		case c == '\n':
			t := token{kind: tokNewline, text: "\n", line: l.line, col: l.col}
			l.pos++
			l.line++
			l.col = 1
			if !l.nl {
				l.nl = true
				return t, nil
			}
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '<' && l.at(1) == '=':
			return l.emit(tokConnect, 2), nil
		case c == '=' && l.at(1) == '>':
			return l.emit(tokFatArrow, 2), nil
		case c == '"':
			end := strings.IndexByte(l.src[l.pos+1:], '"')
			if end < 0 {
				return token{}, fmt.Errorf("firrtl:%d:%d: unterminated string", l.line, l.col)
			}
			t := l.emit(tokString, end+2)
			t.text = t.text[1 : end+1]
			return t, nil
		case c >= '0' && c <= '9':
			n := 1
			for l.pos+n < len(l.src) && l.src[l.pos+n] >= '0' && l.src[l.pos+n] <= '9' {
				n++
			}
			return l.emit(tokInt, n), nil
		default:
			if k := punct[c]; k != tokEOF {
				return l.emit(k, 1), nil
			}
			return token{}, fmt.Errorf("firrtl:%d:%d: unexpected character %q", l.line, l.col, c)
		}
	}
	if !l.nl {
		l.nl = true
		return token{kind: tokNewline, text: "\n", line: l.line, col: l.col}, nil
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil
}

// at is the byte i past the current one, or 0 past the end of the source.
func (l *lexer) at(i int) byte {
	if l.pos+i < len(l.src) {
		return l.src[l.pos+i]
	}
	return 0
}

// emit returns the next n bytes as a token of kind k and steps past them.
func (l *lexer) emit(k tokKind, n int) token {
	t := token{kind: k, text: l.src[l.pos : l.pos+n], line: l.line, col: l.col}
	l.pos += n
	l.col += n
	l.nl = false
	return t
}

// punct maps each one-byte punctuation token to its kind; every other byte
// maps to tokEOF.
var punct = [256]tokKind{
	'(': tokLParen, ')': tokRParen, '<': tokLAngle, '>': tokRAngle,
	':': tokColon, ',': tokComma, '.': tokDot, '=': tokEq,
}

// byteClass is isIdentStart and isIdentPart tabulated per byte, a byte read
// as the rune of the same value.
var byteClass = func() (t [256]uint8) {
	for i := range t {
		if isIdentStart(rune(i)) {
			t[i] |= identStart
		}
		if isIdentPart(rune(i)) {
			t[i] |= identPart
		}
	}
	return t
}()

const (
	identStart uint8 = 1 << iota
	identPart
)

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
