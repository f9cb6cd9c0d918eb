package firrtl

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"rteaal/internal/dfg"
)

const counterSrc = `
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input step : UInt<4>
    output count : UInt<8>
    regreset c : UInt<8>, clock, reset, UInt<8>(0)
    node sum = tail(add(c, pad(step, 8)), 1)
    c <= sum
    count <= c
`

func TestParseCounter(t *testing.T) {
	c, err := Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Counter" || len(c.Modules) != 1 {
		t.Fatalf("circuit = %q with %d modules", c.Name, len(c.Modules))
	}
	m := c.MainModule()
	if m == nil {
		t.Fatal("no main module")
	}
	if len(m.Ports) != 4 {
		t.Fatalf("ports = %d, want 4", len(m.Ports))
	}
	if len(m.Stmts) != 4 {
		t.Fatalf("stmts = %d, want 4", len(m.Stmts))
	}
}

func TestElaborateCounterBehaviour(t *testing.T) {
	g, err := ParseAndElaborate(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.PokeInputName("step", 3); err != nil {
		t.Fatal(err)
	}
	it.Run(5)
	if got := it.RegSnapshot()[0]; got != 15 {
		t.Fatalf("count after 5 steps of 3 = %d, want 15", got)
	}
	// Assert reset dominates.
	if err := it.PokeInputName("reset", 1); err != nil {
		t.Fatal(err)
	}
	it.Step()
	if got := it.RegSnapshot()[0]; got != 0 {
		t.Fatalf("count after reset = %d, want 0", got)
	}
}

const hierSrc = `
circuit Top :
  module Adder :
    input a : UInt<8>
    input b : UInt<8>
    output sum : UInt<8>
    sum <= tail(add(a, b), 1)

  module Top :
    input clock : Clock
    input x : UInt<8>
    output y : UInt<8>
    inst u0 of Adder
    inst u1 of Adder
    u0.a <= x
    u0.b <= UInt<8>(1)
    u1.a <= u0.sum
    u1.b <= u0.sum
    y <= u1.sum
`

func TestElaborateHierarchy(t *testing.T) {
	g, err := ParseAndElaborate(hierSrc)
	if err != nil {
		t.Fatal(err)
	}
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.PokeInputName("x", 20); err != nil {
		t.Fatal(err)
	}
	it.Eval()
	// y = 2*(x+1) = 42
	if got := it.PeekOutput(0); got != 42 {
		t.Fatalf("y = %d, want 42", got)
	}
}

// Feedthrough: an instance whose input depends on its own output through
// parent logic must elaborate as long as no combinational cycle exists.
const feedSrc = `
circuit Top :
  module Pass :
    input i1 : UInt<8>
    input i2 : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    o1 <= i1
    o2 <= i2

  module Top :
    input x : UInt<8>
    output y : UInt<8>
    inst p of Pass
    p.i1 <= x
    p.i2 <= p.o1
    y <= p.o2
`

func TestElaborateInstanceFeedthrough(t *testing.T) {
	g, err := ParseAndElaborate(feedSrc)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := dfg.NewInterp(g)
	it.PokeInputName("x", 7)
	it.Eval()
	if got := it.PeekOutput(0); got != 7 {
		t.Fatalf("feedthrough y = %d, want 7", got)
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := map[string]string{
		"undriven wire": `
circuit T :
  module T :
    input x : UInt<8>
    output y : UInt<8>
    wire w : UInt<8>
    y <= w
`,
		"comb cycle": `
circuit T :
  module T :
    output y : UInt<8>
    wire a : UInt<8>
    wire b : UInt<8>
    a <= b
    b <= a
    y <= a
`,
		"unknown ref": `
circuit T :
  module T :
    output y : UInt<8>
    y <= nosuch
`,
		"connect to input": `
circuit T :
  module T :
    input x : UInt<8>
    output y : UInt<8>
    x <= UInt<8>(1)
    y <= x
`,
		"unconnected reg": `
circuit T :
  module T :
    input clock : Clock
    output y : UInt<8>
    reg r : UInt<8>, clock
    y <= r
`,
		"width overflow connect": `
circuit T :
  module T :
    input x : UInt<16>
    output y : UInt<8>
    y <= x
`,
		"duplicate decl": `
circuit T :
  module T :
    input x : UInt<8>
    output y : UInt<8>
    wire x : UInt<8>
    y <= x
`,
		"unknown module": `
circuit T :
  module T :
    output y : UInt<8>
    inst u of Nothing
    y <= u.out
`,
		"sint rejected": `
circuit T :
  module T :
    input x : SInt<8>
    output y : UInt<8>
    y <= UInt<8>(0)
`,
		"bits out of range": `
circuit T :
  module T :
    input x : UInt<8>
    output y : UInt<4>
    y <= bits(x, 9, 6)
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseAndElaborate(src); err == nil {
				t.Fatalf("expected error for %s", name)
			}
		})
	}
}

// TestElaborateInstanceErrors: an error inside an instance names the signal
// by its instance path, and recursion stops at the nesting bound.
func TestElaborateInstanceErrors(t *testing.T) {
	const leaf = "circuit T :\n  module L :\n    input clock : Clock\n    input x : UInt<8>\n    output y : UInt<8>\n"
	const top = "  module T :\n    input clock : Clock\n    input a : UInt<8>\n    output b : UInt<8>\n    inst u of L\n    u.x <= a\n    b <= u.y\n"
	for body, want := range map[string]string{
		"    wire w : UInt<8>\n    y <= w\n":                               `firrtl:6: signal "u.w" is never driven`,
		"    reg r : UInt<8>, clock\n    y <= r\n":                         `firrtl:6: register "u.r" has no next-state connect`,
		"    y <= nosuch\n":                                                `firrtl:6: reference to undeclared signal "u.nosuch"`,
		"    inst z of L\n    y <= x\n":                                    "firrtl: instance nesting exceeds 64 (recursive modules?)",
		"    node p = add(q, x)\n    node q = bits(p, 7, 0)\n    y <= q\n": `firrtl:7: combinational cycle through node "u.q"`,
		"    reg r : UInt<4>, clock\n    r <= x\n    y <= r\n":             "firrtl:7: register u.r: cannot connect 8-bit value to 4-bit signal",
		"    node n = x\n    n <= x\n    y <= x\n":                         `firrtl:7: cannot connect to node "u.n"`,
	} {
		if _, err := ParseAndElaborate(leaf + body + top); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", body, err, want)
		}
	}
}

// doublingSrc is k modules that each instantiate the previous one twice,
// over a leaf module M0 whose statements are leaf: 2^k instances of M0.
func doublingSrc(k int, leaf string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit M%d :\n  module M0 :\n    input x : UInt<8>\n    output y : UInt<8>\n%s", k, leaf)
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "  module M%d :\n    input x : UInt<8>\n    output y : UInt<8>\n", i)
		fmt.Fprintf(&b, "    inst a of M%d\n    inst b of M%d\n    a.x <= x\n    b.x <= a.y\n    y <= b.y\n", i-1, i-1)
	}
	return b.String()
}

// TestElaborateBoundsInstanceFanOut: 30 modules that each instantiate the
// previous one twice would elaborate 2^30 instances; the source is refused
// at once, naming the bound, while 8 such modules elaborate.
func TestElaborateBoundsInstanceFanOut(t *testing.T) {
	const leaf = "    y <= not(x)\n"
	if _, err := ParseAndElaborate(doublingSrc(8, leaf)); err != nil {
		t.Fatalf("k = 8: %v", err)
	}
	src := doublingSrc(30, leaf)
	start := time.Now()
	_, err := ParseAndElaborate(src)
	took := time.Since(start)
	want := fmt.Sprintf(`firrtl: module "M30" elaborates to more than %d statements and instance ports`, maxElaboratedStmts)
	if err == nil || err.Error() != want {
		t.Fatalf("k = 30: error %v, want %s", err, want)
	}
	if took > 100*time.Millisecond {
		t.Errorf("k = 30: refusing a %d-byte source took %v, want under 100ms", len(src), took)
	}
}

// TestElaborateBoundsExpressionNodes: a leaf with one 900-deep expression
// under k doubling modules counts 900·2^k nodes, far more than its
// statements. Under 12 such modules, with the expression unread, it
// elaborates without reserving for it; under 13 it is refused, read or
// not, naming the bound, before anything is reserved or built.
func TestElaborateBoundsExpressionNodes(t *testing.T) {
	deep := "    node n = " + strings.Repeat("not(", 900) + "x" + strings.Repeat(")", 900) + "\n"
	elaborate := func(src string) (alloc uint64, err error) {
		c, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		alloc = allocated(func() { _, err = Elaborate(c) })
		return alloc, err
	}
	alloc, err := elaborate(doublingSrc(12, deep+"    y <= x\n"))
	if err != nil {
		t.Fatalf("k = 12, unread: %v", err)
	}
	t.Logf("k = 12, unread: Elaborate allocated %.1f MB", float64(alloc)/1e6)
	if alloc > 24<<20 {
		t.Errorf("k = 12, unread: Elaborate allocated %.1f MB, want at most 24 MiB", float64(alloc)/1e6)
	}
	want := fmt.Sprintf(`firrtl: module "M13" elaborates to more than %d expression nodes`, maxElaboratedNodes)
	for _, use := range []string{"    y <= x\n", "    y <= n\n"} {
		start := time.Now()
		alloc, err := elaborate(doublingSrc(13, deep+use))
		took := time.Since(start)
		if err == nil || err.Error() != want {
			t.Fatalf("k = 13, %q: error %v, want %s", use, err, want)
		}
		if took > 100*time.Millisecond || alloc > 1<<20 {
			t.Errorf("k = 13, %q: refusing took %v and %d bytes, want under 100ms and 1 MiB", use, took, alloc)
		}
	}
}

// TestElaborateReservesOnce: the node array Elaborate reserves from
// elaboratedSize holds the whole graph, so it is never regrown, and each
// constant (value, width) is one node. TestElaborateBoundsExpressionNodes
// holds the reservation to what the statements can build.
func TestElaborateReservesOnce(t *testing.T) {
	for name, src := range map[string]string{
		"all primops": allPrimopsSrc,
		"counter":     counterSrc,
		"hierarchy":   hierSrc,
		"r1/8":        r18(t),
	} {
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := elaboratedSize(c, c.MainModule(), map[*Module]elabSize{})
		g, err := Elaborate(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		consts := map[[2]uint64]bool{}
		for _, n := range g.Nodes {
			if n.Kind == dfg.KindConst {
				k := [2]uint64{n.Val, uint64(n.Width)}
				if consts[k] {
					t.Errorf("%s: constant %d of width %d is more than one node", name, n.Val, n.Width)
				}
				consts[k] = true
			}
		}
		if cap(g.Nodes) != size.reservedNodes() {
			t.Errorf("%s: %d nodes in capacity %d, reserved %d", name, len(g.Nodes), cap(g.Nodes), size.reservedNodes())
		}
	}
}

// TestParseBoundsExpressionDepth: parsing refuses an expression nested past
// maxExprDepth, naming the bound, so no phase that recurses once per level
// — parseExpr/parsePrim, exprNodes, elaborator.eval/evalPrim — can exhaust its
// stack. The 100k-deep source runs under a 16 MB stack cap: unbounded, its
// parse alone needs about 67 MB of stack, and a stack overflow kills the
// test binary.
func TestParseBoundsExpressionDepth(t *testing.T) {
	nested := func(depth int) string {
		return "circuit D :\n  module D :\n    input a : UInt<1>\n    output y : UInt<1>\n    node n = " +
			strings.Repeat("not(", depth) + "a" + strings.Repeat(")", depth) + "\n    y <= n\n"
	}
	if _, err := ParseAndElaborate(nested(maxExprDepth)); err != nil {
		t.Fatalf("depth %d: %v", maxExprDepth, err)
	}
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	want := fmt.Sprintf("firrtl:5:%d: expression nests more than %d primitive operations deep", 14+4*maxExprDepth, maxExprDepth)
	for _, depth := range []int{maxExprDepth + 1, 100_000} {
		src := nested(depth)
		start := time.Now()
		_, err := ParseAndElaborate(src)
		took := time.Since(start)
		if err == nil || err.Error() != want {
			t.Fatalf("depth %d: error %v, want %s", depth, err, want)
		}
		if took > 100*time.Millisecond {
			t.Errorf("depth %d: refusing a %d-byte source took %v, want under 100ms", depth, len(src), took)
		}
	}
}

// TestModuleLookupIsConstant: modules are found by one name → module map,
// so parsing and elaborating one-skip modules, each instantiated once by the
// main module, scales linearly. The bar is a ratio measured in the test, so
// it holds on a loaded or instrumented (-race) host: 4× the modules read
// 4–7× with the map and must stay under 10×, where a linear scan per lookup
// (quadratic, 16×) read 17–28×. The two sizes take turns, five runs each,
// and each keeps its median.
func TestModuleLookupIsConstant(t *testing.T) {
	const n = 2_500
	source := func(modules int) string {
		var b strings.Builder
		b.WriteString("circuit M0 :\n  module M0 :\n")
		for i := 1; i < modules; i++ {
			fmt.Fprintf(&b, "    inst u%d of M%d\n", i, i)
		}
		for i := 1; i < modules; i++ {
			fmt.Fprintf(&b, "  module M%d :\n    skip\n", i)
		}
		return b.String()
	}
	srcs := [2]string{source(n), source(4 * n)}
	var runs [2][5]time.Duration
	for r := range runs[0] {
		for i, src := range srcs {
			start := time.Now()
			if _, err := ParseAndElaborate(src); err != nil {
				t.Fatal(err)
			}
			runs[i][r] = time.Since(start)
		}
	}
	slices.Sort(runs[0][:])
	slices.Sort(runs[1][:])
	small, large := runs[0][2], runs[1][2]
	ratio := float64(large) / float64(small)
	t.Logf("%d modules in %v, %d in %v: %.1fx", n, small, 4*n, large, ratio)
	if ratio > 10 {
		t.Errorf("4x the modules took %.1fx as long (%v against %v), want under 10x: module lookup grows with the module count", ratio, large, small)
	}
}

// TestParseErrors pins each error's text. A lexical error anywhere in the
// source wins over a parse error before it.
func TestParseErrors(t *testing.T) {
	cases := map[string]struct{ src, want string }{
		"no circuit":     {"module M :\n", `firrtl:1:1: expected "circuit", found "module"`},
		"no main module": {"circuit A :\n  module B :\n    skip\n", `firrtl: circuit "A" has no module of the same name`},
		"bad width":      {"circuit T :\n  module T :\n    input x : UInt<0>\n", `firrtl:3:20: width must be 1..64, got "0"`},
		"bad token":      {"circuit T :\n  module T :\n    input x : UInt<8> @\n", "firrtl:3:23: unexpected character '@'"},
		"dup module":     {"circuit T :\n  module T :\n    skip\n  module T :\n    skip\n", `firrtl: duplicate module "T"`},
		"unterminated":   {"circuit T :\n  module T :\n    node a = UInt<8>(\"h12\n", "firrtl:3:22: unterminated string"},
		"lexical error wins": {
			"circuit T :\n  module T :\n    input x : UInt<0>\n    node y = x @\n", "firrtl:4:16: unexpected character '@'"},
		"unterminated at eof": {"circuit T :\n  module T :\n    node a = UInt<8>(\"h12", "firrtl:3:22: unterminated string"},
		"primitive name at eof": {
			"circuit T :\n  module M :\n    node n = add", `firrtl: circuit "T" has no module of the same name`},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(c.src); err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %s", err, c.want)
			}
		})
	}
	// Without '(' after it, a primitive's name is a reference.
	c, err := Parse("circuit T :\n  module T :\n    node n = add")
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Modules[0].Stmts[0].(*NodeDecl).Expr.(*RefExpr); !ok || r.Name != "add" {
		t.Fatalf("node n = %#v, want a reference to add", c.Modules[0].Stmts[0].(*NodeDecl).Expr)
	}
}

func TestHexLiteralsAndComments(t *testing.T) {
	src := `
circuit T : ; the circuit
  module T :
    output y : UInt<8> ; an output
    y <= UInt<8>("hff")
`
	g, err := ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := dfg.NewInterp(g)
	it.Eval()
	if got := it.PeekOutput(0); got != 0xff {
		t.Fatalf("y = %#x", got)
	}
}

func TestRegWithResetSyntax(t *testing.T) {
	src := `
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    output y : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(9)))
    r <= tail(add(r, UInt<8>(1)), 1)
    y <= r
`
	g, err := ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Regs) != 1 || g.Regs[0].Init != 9 {
		t.Fatalf("reg init = %d, want 9", g.Regs[0].Init)
	}
	it, _ := dfg.NewInterp(g)
	it.PokeInputName("reset", 1)
	it.Step()
	if got := it.RegSnapshot()[0]; got != 9 {
		t.Fatalf("reset value = %d, want 9", got)
	}
}

func TestWidthCappingAt64(t *testing.T) {
	src := `
circuit T :
  module T :
    input a : UInt<64>
    input b : UInt<64>
    output y : UInt<64>
    y <= tail(add(a, b), 0)
`
	// add of two 64-bit values caps at 64 and wraps; tail(_, 0) is a no-op.
	g, err := ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := dfg.NewInterp(g)
	it.PokeInputName("a", ^uint64(0))
	it.PokeInputName("b", 2)
	it.Eval()
	if got := it.PeekOutput(0); got != 1 {
		t.Fatalf("wrapped add = %d, want 1", got)
	}
}

// allPrimopsSrc reads every primitive of the subset into its one output.
const allPrimopsSrc = `
circuit T :
  module T :
    input a : UInt<8>
    input b : UInt<8>
    input s : UInt<1>
    output y : UInt<8>
    node t0 = add(a, b)
    node t1 = sub(a, b)
    node t2 = mul(a, b)
    node t3 = div(a, b)
    node t4 = rem(a, b)
    node t5 = lt(a, b)
    node t6 = leq(a, b)
    node t7 = gt(a, b)
    node t8 = geq(a, b)
    node t9 = eq(a, b)
    node t10 = neq(a, b)
    node t11 = and(a, b)
    node t12 = or(a, b)
    node t13 = xor(a, b)
    node t14 = not(a)
    node t15 = neg(a)
    node t16 = cat(a, b)
    node t17 = bits(a, 5, 2)
    node t18 = head(a, 3)
    node t19 = tail(a, 3)
    node t20 = pad(a, 16)
    node t21 = shl(a, 2)
    node t22 = shr(a, 2)
    node t23 = dshl(a, bits(b, 2, 0))
    node t24 = dshr(a, b)
    node t25 = mux(s, a, b)
    node t26 = andr(a)
    node t27 = orr(a)
    node t28 = xorr(a)
    node t29 = asUInt(a)
    node t30 = validif(s, a)
    node acc1 = xor(xor(xor(t0, t1), xor(t2, t3)), xor(xor(pad(t4, 9), pad(t5, 9)), xor(pad(t6, 9), pad(t7, 9))))
    node acc2 = xor(xor(xor(pad(t8, 16), pad(t9, 16)), xor(pad(t10, 16), pad(t11, 16))), xor(xor(t12, t13), xor(t14, t15)))
    node acc3 = xor(xor(xor(t16, pad(t17, 16)), xor(pad(t18, 16), pad(t19, 16))), xor(xor(t20, pad(t21, 16)), xor(pad(t22, 16), pad(t23, 16))))
    node acc4 = xor(xor(pad(t24, 16), pad(t25, 16)), xor(xor(pad(t26, 16), pad(t27, 16)), xor(pad(t28, 16), pad(t29, 16))))
    node acc = xor(xor(pad(acc1, 16), acc2), xor(acc3, xor(acc4, pad(t30, 16))))
    y <= bits(acc, 7, 0)
`

func TestAllPrimopsElaborate(t *testing.T) {
	g, err := ParseAndElaborate(allPrimopsSrc)
	if err != nil {
		t.Fatal(err)
	}
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	it.PokeInputName("a", 0xA5)
	it.PokeInputName("b", 0x3C)
	it.PokeInputName("s", 1)
	it.Eval() // must not panic; exact value checked by round-trip tests
}

// TestEmitRoundTripProperty is the frontend's central property: emitting a
// random dataflow graph as FIRRTL and re-elaborating it must preserve the
// output and register traces exactly — also with the emitted module
// instantiated twice in a hierarchy (wrapHierarchy), where each instance
// must trace the trial's graph under its own stimulus, every register read
// by its instance path.
func TestEmitRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		g := dfg.RandomGraph(rng, dfg.DefaultRandomParams())
		src, err := Emit(g)
		if err != nil {
			t.Fatalf("trial %d: emit: %v", trial, err)
		}
		g2, err := ParseAndElaborate(src)
		if err != nil {
			t.Fatalf("trial %d: re-elaborate: %v\n%s", trial, err, src)
		}
		if len(g2.Inputs) != len(g.Inputs) || len(g2.Outputs) != len(g.Outputs) || len(g2.Regs) != len(g.Regs) {
			t.Fatalf("trial %d: interface mismatch", trial)
		}
		top, regNames := wrapHierarchy(t, src)
		g3, err := ParseAndElaborate(top)
		if err != nil {
			t.Fatalf("trial %d: elaborate hierarchy: %v\n%s", trial, err, top)
		}
		nIn, nOut := len(g.Inputs), len(g.Outputs)
		if len(g3.Inputs) != 2*nIn || len(g3.Outputs) != 2*nOut || len(g3.Regs) != 2*len(g.Regs) {
			t.Fatalf("trial %d: hierarchy interface mismatch", trial)
		}
		regAt := make(map[string]int)
		for k, r := range g3.Regs {
			regAt[g3.Node(r.Node).Name] = k
		}
		it1, it2, it3 := newInterp(t, g), newInterp(t, g2), newInterp(t, g3)
		// Instance a.c sees it1's stimulus; instance b, a stimulus of its own.
		insts := []struct {
			path string
			ref  *dfg.Interp
			stim *rand.Rand
		}{
			{"a.c.", it1, rand.New(rand.NewSource(int64(trial)))},
			{"b.", newInterp(t, g), rand.New(rand.NewSource(^int64(trial)))},
		}
		for cyc := 0; cyc < 20; cyc++ {
			for k, in := range insts {
				for i := range g.Inputs {
					v := in.stim.Uint64()
					in.ref.PokeInput(i, v)
					it3.PokeInput(k*nIn+i, v)
					if k == 0 {
						it2.PokeInput(i, v)
					}
				}
			}
			for _, it := range []*dfg.Interp{it1, it2, it3, insts[1].ref} {
				it.Step()
			}
			o1, o2 := it1.OutputSnapshot(), it2.OutputSnapshot()
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("trial %d cycle %d output %d: %d vs %d\n%s",
						trial, cyc, i, o1[i], o2[i], src)
				}
			}
			r1, r2 := it1.RegSnapshot(), it2.RegSnapshot()
			for i := range r1 {
				if r1[i] != r2[i] {
					t.Fatalf("trial %d cycle %d reg %d: %d vs %d\n%s",
						trial, cyc, i, r1[i], r2[i], src)
				}
			}
			o3, r3 := it3.OutputSnapshot(), it3.RegSnapshot()
			for k, in := range insts {
				for i, want := range in.ref.OutputSnapshot() {
					if got := o3[k*nOut+i]; got != want {
						t.Fatalf("trial %d cycle %d: hierarchy output %d: %d, want %d\n%s",
							trial, cyc, k*nOut+i, got, want, top)
					}
				}
				for i, want := range in.ref.RegSnapshot() {
					name := in.path + regNames[i]
					j, ok := regAt[name]
					if !ok {
						t.Fatalf("trial %d: no register %s\n%s", trial, name, top)
					}
					if r3[j] != want {
						t.Fatalf("trial %d cycle %d: register %s = %d, want %d\n%s",
							trial, cyc, name, r3[j], want, top)
					}
				}
			}
		}
	}
}

func newInterp(t *testing.T, g *dfg.Graph) *dfg.Interp {
	t.Helper()
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// wrapHierarchy returns the emitted module src renamed Child and instantiated
// twice in a Top: as a.c, inside a Mid that wires it through, and as b, beside
// a. Top wires the clock and every input and output of both through, as
// a_<port> and b_<port>, so its inputs are a's then b's, and its outputs too.
// It also returns Child's register names in declaration order, which is the
// emitted graph's register order. TestCompileDeterministic builds the same.
func wrapHierarchy(t *testing.T, src string) (string, []string) {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var ports []PortDecl
	for _, p := range c.MainModule().Ports {
		if p.Type == TypeUInt {
			ports = append(ports, p)
		}
	}
	var regs []string
	for _, s := range c.MainModule().Stmts {
		if r, ok := s.(*RegDecl); ok {
			regs = append(regs, r.Name)
		}
	}
	var w strings.Builder
	w.WriteString("circuit Top :\n  module Child :\n" + src[strings.Index(src, "    input clock"):])
	module := func(name string, insts ...[3]string) { // {instance, module, port prefix}
		fmt.Fprintf(&w, "  module %s :\n    input clock : Clock\n", name)
		for _, in := range insts {
			for _, p := range ports {
				fmt.Fprintf(&w, "    %s %s%s : UInt<%d>\n", [...]string{"input", "output"}[p.Dir], in[2], p.Name, p.Width)
			}
		}
		for _, in := range insts {
			fmt.Fprintf(&w, "    inst %s of %s\n    %s.clock <= clock\n", in[0], in[1], in[0])
			for _, p := range ports {
				if p.Dir == DirInput {
					fmt.Fprintf(&w, "    %s.%s <= %s%s\n", in[0], p.Name, in[2], p.Name)
				} else {
					fmt.Fprintf(&w, "    %s%s <= %s.%s\n", in[2], p.Name, in[0], p.Name)
				}
			}
		}
	}
	module("Mid", [3]string{"c", "Child", ""})
	module("Top", [3]string{"a", "Mid", "a_"}, [3]string{"b", "Child", "b_"})
	return w.String(), regs
}

func TestEmitIsParseable(t *testing.T) {
	g, err := ParseAndElaborate(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Emit(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "circuit Counter :") {
		t.Fatalf("emitted header missing:\n%s", src)
	}
	if _, err := ParseAndElaborate(src); err != nil {
		t.Fatalf("re-parse: %v\n%s", err, src)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"a.b.c":   "a$b$c",
		"x":       "x",
		"3bad":    "_bad",
		"ok_name": "ok_name",
		"sp ace":  "sp_ace",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
