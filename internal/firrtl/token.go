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

// lexer tokenises FIRRTL text line-by-line. Comments run from ';' to end of
// line. Indentation is not tokenised: the parser recovers structure from
// keywords, which is sufficient for the flat LoFIRRTL dialect.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
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
				return nil, fmt.Errorf("firrtl:%d:%d: unterminated string", l.line, l.col)
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
			return nil, fmt.Errorf("firrtl:%d:%d: unexpected character %q", l.line, l.col, c)
		}
	}
	l.emit(tokNewline, "\n")
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string) { l.emitAt(k, text, l.col) }

func (l *lexer) emitAt(k tokKind, text string, col int) {
	// Collapse runs of newlines.
	if k == tokNewline && len(l.toks) > 0 && l.toks[len(l.toks)-1].kind == tokNewline {
		return
	}
	l.toks = append(l.toks, token{kind: k, text: text, line: l.line, col: col})
}

func (l *lexer) advance(n int) {
	l.pos += n
	l.col += n
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
