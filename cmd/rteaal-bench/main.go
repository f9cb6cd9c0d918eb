// Command rteaal-bench regenerates the paper's tables and figures from the
// analytical model (internal/perf, machines, codegen):
//
//	rteaal-bench all
//	rteaal-bench -scale 8 table5 figure16 figure20
//
// Experiments: table1, table3..table7, figure7, figure8, figure15..figure21,
// all. This system's own speed is measured by `go run ./benchmark`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rteaal/internal/bench"
)

func main() {
	scale := flag.Int("scale", 8, "design scale divisor for perf-model experiments")
	flag.Parse()
	c := bench.Config{Scale: *scale}

	experiments := map[string]func() error{
		"table1":   func() error { return bench.Table1(os.Stdout, c) },
		"table3":   func() error { bench.Table3(os.Stdout, c); return nil },
		"figure7":  func() error { return bench.Figure7(os.Stdout, c) },
		"figure8":  func() error { return bench.Figure8(os.Stdout, c) },
		"table4":   func() error { return bench.Table4(os.Stdout, c) },
		"table5":   func() error { return bench.Table5(os.Stdout, c) },
		"table6":   func() error { return bench.Table6(os.Stdout, c) },
		"figure15": func() error { return bench.Figure15(os.Stdout, c) },
		"figure16": func() error { return bench.Figure16(os.Stdout, c) },
		"figure17": func() error { return bench.Figure17(os.Stdout, c) },
		"figure18": func() error { return bench.Figure18(os.Stdout, c) },
		"figure19": func() error { return bench.Figure19(os.Stdout, c) },
		"figure20": func() error { return bench.Figure20(os.Stdout, c) },
		"figure21": func() error { return bench.Figure21(os.Stdout, c) },
		"table7":   func() error { return bench.Table7(os.Stdout, c) },
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	for _, name := range args {
		name = strings.ToLower(name)
		if name == "all" {
			if err := bench.All(os.Stdout, c); err != nil {
				fatal(err)
			}
			continue
		}
		f, ok := experiments[name]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try table1, table3..table7, figure7, figure8, figure15..figure21, all)", name))
		}
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rteaal-bench:", err)
	os.Exit(1)
}
