package difftest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rteaal/internal/kernel"
	"rteaal/internal/testbench"
	"rteaal/sim"
)

// TestMatrixCoversOptionSurface: reachable ⊆ tested, and every leg is what
// its name says. Over a case with registers enough for three partitions,
// each engine of the matrix must run the kernel kind its name names (sim's
// default where it names none) and the partition count it names ("n=K";
// none where it names none), as read off what was built. Every kind
// kernel.Kinds lists has a one-lane leg, the reference leg, first, is RU's,
// and a sim batch sharded over more than one worker, which no option
// reaches, has a leg too. Every compile option sim exports — read from its
// source, so a third option cannot be added without a row here — names the
// legs that take it off its default, and each named leg exists.
func TestMatrixCoversOptionSurface(t *testing.T) {
	def, err := sim.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	var c *Case
	for seed := int64(1); c == nil || len(c.Graph.Regs) < 3; seed++ {
		c = NewCase(seed, Profiles()[0], 1, 2)
	}
	m, err := NewMatrix(c.Graph, c.Lanes, testbench.Random(c.StimSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var names []string
	kinds := map[kernel.Kind]string{}
	for _, e := range m.engines {
		names = append(names, e.name)
		kind, parts := def.Kernel(), 0
		for _, part := range strings.Split(e.name, "/") {
			if k := slices.IndexFunc(kernel.Kinds(), func(k kernel.Kind) bool { return k.String() == part }); k >= 0 {
				kind = kernel.Kinds()[k]
			}
			if n, ok := strings.CutPrefix(part, "n="); ok {
				if parts, err = strconv.Atoi(n); err != nil {
					t.Fatalf("leg %s: %v", e.name, err)
				}
			}
		}
		if e.kind != kind || e.parts != parts {
			t.Errorf("leg %s runs kernel %v over %d partitions; its name says %v over %d", e.name, e.kind, e.parts, kind, parts)
		}
		if e.lanes == 1 && e.parts == 0 {
			kinds[e.kind] = e.name
		}
	}
	for _, k := range kernel.Kinds() {
		if kinds[k] == "" {
			t.Errorf("no one-lane unpartitioned leg runs kernel %v", k)
		}
	}
	if names[0] != "kernel/RU" {
		t.Errorf("the reference leg is %s; want kernel/RU, the kernel that executes Cascade 1 as written", names[0])
	}
	if !slices.ContainsFunc(legs(), func(l leg) bool { return l.viaSim && l.workers > 1 }) {
		t.Error("no leg mints a sim batch over more than one worker")
	}
	optionLegs := map[string][]string{
		"WithKernel":     nil, // filled below: the leg of every kind but the default
		"WithPartitions": {"partitioned/n=2", "partitioned/n=3", "partitioned/n=2/TI"},
	}
	for k, name := range kinds {
		if k != def.Kernel() {
			optionLegs["WithKernel"] = append(optionLegs["WithKernel"], name)
		}
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
