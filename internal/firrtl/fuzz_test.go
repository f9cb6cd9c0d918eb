package firrtl

import "testing"

// parseSeeds are FuzzParse's seeds, which TestLexerMatchesOracle reads too.
var parseSeeds = []string{
	`
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input step : UInt<4>
    output count : UInt<8>
    regreset c : UInt<8>, clock, reset, UInt<8>(0)
    c <= tail(add(c, pad(step, 8)), 1)
    count <= c
`,
	`
circuit Echo :
  module Echo :
    input clock : Clock
    input in_valid : UInt<1>
    output out_ready : UInt<1>
    reg rv : UInt<1>, clock
    rv <= in_valid
    out_ready <= rv
`,
	`
circuit Top :
  module Leaf :
    input clock : Clock
    input x : UInt<8>
    output y : UInt<8>
    y <= not(x)
  module Top :
    input clock : Clock
    input a : UInt<8>
    output b : UInt<8>
    inst l of Leaf
    l.clock <= clock
    l.x <= a
    b <= l.y
`,
	"circuit C :\n  module C :\n    output o : UInt<99>\n",
	"circuit :\n",
	"circuit C :\n  module C :\n    node n = mux(UInt<1>(1))\n",
	"\x00\xff garbage ≤ tokens 🜚",
}

// FuzzParse asserts the frontend's contract on arbitrary input: malformed
// FIRRTL must be rejected with an error — never a panic — and anything
// that parses and elaborates must yield a structurally valid graph. The
// streaming lexer must also match the oracle lex token for token.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		checkLexerMatchesOracle(t, src)
		c, err := Parse(src)
		if err == nil && c == nil {
			t.Fatal("Parse returned nil circuit without error")
		}
		g, err := ParseAndElaborate(src)
		if err != nil {
			return // rejected cleanly: the contract holds
		}
		if g == nil {
			t.Fatal("ParseAndElaborate returned nil graph without error")
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("elaborated graph fails validation: %v\nsource:\n%s", verr, src)
		}
	})
}
