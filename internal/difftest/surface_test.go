package difftest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rteaal/sim"
)

// TestMatrixCoversOptionSurface: reachable ⊆ tested. Every compile option
// sim exports — read from its source, so a third option cannot be added
// without a row here — names the legs of the matrix that take it off its
// default, every kernel sim.Kernels lists has a session leg, and each named
// leg exists, and each session leg compiles the kernel it is named for (so
// the option-free leg follows sim's default and no kernel goes untested
// under another's name). The reference leg, first, is RU's session, and a
// sim batch sharded over more than one worker, which no option reaches, has
// a leg too.
func TestMatrixCoversOptionSurface(t *testing.T) {
	var names []string
	sharded := false
	for _, l := range legs() {
		names = append(names, l.name)
		sharded = sharded || l.workers > 1
		if kind, ok := strings.CutPrefix(l.name, "session/"); ok {
			d, err := sim.Compile(tinySrc, l.opts...)
			if err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
			if got := d.Kernel().String(); got != kind {
				t.Errorf("leg %s compiles kernel %s", l.name, got)
			}
		}
	}
	if !sharded {
		t.Error("no leg mints a sim batch over more than one worker")
	}
	if names[0] != "session/RU" {
		t.Errorf("the reference leg is %s; want session/RU, the kernel that executes Cascade 1 as written", names[0])
	}
	optionLegs := map[string][]string{
		"WithKernel":     nil, // filled below: one session per kernel
		"WithPartitions": {"partitioned/n=2", "partitioned/n=3", "partitioned/n=2/TI"},
	}
	for _, k := range sim.Kernels() {
		optionLegs["WithKernel"] = append(optionLegs["WithKernel"], "session/"+k.String())
	}

	files, err := filepath.Glob("../../sim/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sim sources found: %v", err)
	}
	var options []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				options = append(options, fn.Name.Name)
			}
		}
	}
	if len(options) != len(optionLegs) {
		t.Errorf("sim exports options %v; the matrix knows %d", options, len(optionLegs))
	}
	for _, opt := range options {
		want, ok := optionLegs[opt]
		if !ok {
			t.Errorf("sim.%s has no leg in the matrix: add one to legs() and a row here", opt)
		}
		for _, name := range want {
			if !slices.Contains(names, name) {
				t.Errorf("sim.%s: the matrix has no leg %q (legs: %v)", opt, name, names)
			}
		}
	}
}

// tinySrc is one register, enough for a design to compile.
const tinySrc = `
circuit Tiny :
  module Tiny :
    input clock : Clock
    output q : UInt<4>
    reg r : UInt<4>, clock
    r <= not(r)
    q <= r
`
