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
// sim exports — read from its source, so a fourth option cannot be added
// without a row here — names the legs of the matrix that take it off its
// default, every kernel sim.Kernels lists has a session leg, and each named
// leg exists. The reference leg, first, is RU's session.
func TestMatrixCoversOptionSurface(t *testing.T) {
	var names []string
	for _, l := range legs() {
		names = append(names, l.name)
	}
	if names[0] != "session/RU" {
		t.Errorf("the reference leg is %s; want session/RU, the kernel that executes Cascade 1 as written", names[0])
	}
	optionLegs := map[string][]string{
		"WithKernel":       nil, // filled below: one session per kernel
		"WithPartitions":   {"partitioned/n=2", "partitioned/n=3", "partitioned/n=2/TI"},
		"WithBatchWorkers": {"batch/packed/w=3"},
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
