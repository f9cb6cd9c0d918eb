// Command rteaal compiles a FIRRTL design through the RTeAAL Sim pipeline
// and simulates it: parse → optimise → levelize → OIM → kernel (Figure 14).
//
//	rteaal -cycles 1000 -vcd out.vcd design.fir
//	rteaal -partitions 2 design.fir
//	rteaal -drive const -drive-value 1 -watch count,state design.fir
//
// The design is driven through the public sim.Testbench transaction layer:
// -drive selects the stimulus (seeded random input traffic, or a constant
// on every input) and -watch prints named signals — inputs, outputs, or
// registers — after every cycle through resolved ports (one-cycle runs;
// without -watch the whole simulation is one bulk run). With -dump-oim
// the generated tensor is written as JSON instead of simulating, matching
// the paper's compiler output; -list-signals prints every watchable signal
// of the compiled design. Every design compiles sim's default kernel, named
// in the summary line: the seven §5.2 kernels compute the same bits, and
// examples/ablation times them against each other.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rteaal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rteaal:", err)
		os.Exit(1)
	}
}

func run() error {
	partitions := flag.Int("partitions", 1, "RepCut partition count (threads); 1 = single-threaded")
	cycles := flag.Int64("cycles", 100, "cycles to simulate")
	seed := flag.Int64("seed", 1, "random stimulus seed")
	drive := flag.String("drive", "random", "input stimulus: random (seeded by -seed) or const")
	driveValue := flag.Uint64("drive-value", 0, "value driven on every input with -drive const")
	watch := flag.String("watch", "", "comma-separated signals to print after each cycle")
	vcdPath := flag.String("vcd", "", "write a VCD waveform to this file")
	dumpOIM := flag.Bool("dump-oim", false, "write the OIM tensor as JSON to stdout and exit")
	listSignals := flag.Bool("list-signals", false, "list the design's watchable signals and exit")
	flag.Parse()

	if flag.NArg() != 1 {
		return fmt.Errorf("usage: rteaal [flags] design.fir")
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	var opts []sim.Option
	if *partitions != 1 {
		// Pass invalid counts through too, so they error at compile
		// instead of silently simulating single-threaded.
		opts = append(opts, sim.WithPartitions(*partitions))
	}
	var stim sim.Stimulus
	switch *drive {
	case "random":
		stim = sim.RandomStimulus(*seed)
	case "const":
		stim = sim.ConstStimulus(*driveValue)
	default:
		return fmt.Errorf("unknown -drive %q (want random|const)", *drive)
	}

	design, err := sim.Compile(string(src), opts...)
	if err != nil {
		return err
	}

	if *listSignals {
		for _, name := range design.Signals() {
			fmt.Println(name)
		}
		return nil
	}

	st := design.Stats()
	fmt.Printf("design %s: %d ops in %d layers, %d slots, %d registers, OIM density %.2e\n",
		st.Design, st.Ops, st.Layers, st.Slots, st.Registers, st.Density)
	fmt.Printf("identity ops before elision: %d (%.1fx effectual)\n",
		st.IdentityOps, float64(st.IdentityOps)/float64(max(st.EffectualOps, 1)))
	if ps, ok := design.PartitionStats(); ok {
		fmt.Printf("partitions: %d (requested %d), replication %.2fx, cut %d registers/cycle\n",
			ps.Partitions, ps.Requested, ps.ReplicationFactor, ps.CutSize)
		if ps.Partitions != ps.Requested {
			fmt.Fprintf(os.Stderr,
				"rteaal: warning: partition count clamped from %d to %d (the design has only %d registers)\n",
				ps.Requested, ps.Partitions, st.Registers)
		}
	}

	if *dumpOIM {
		return design.WriteOIM(os.Stdout)
	}

	s := design.NewSession()
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.EnableWaveform(f); err != nil {
			return err
		}
		defer s.CloseWaveform()
	}

	tb := s.Testbench()
	tb.Drive(stim)
	var watchPorts []*sim.Port
	if *watch != "" {
		for _, name := range strings.Split(*watch, ",") {
			p, err := tb.Port(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("%w (signals: %s)", err, strings.Join(design.Signals(), " "))
			}
			watchPorts = append(watchPorts, p)
		}
	}
	if len(watchPorts) == 0 {
		// Nothing to print between cycles: one bulk run, so a partitioned
		// session keeps its workers resident instead of joining every cycle.
		if err := tb.Run(*cycles); err != nil {
			return err
		}
	} else {
		for c := int64(0); c < *cycles; c++ {
			if err := tb.Step(); err != nil {
				return err
			}
			fmt.Printf("cycle %d:", tb.Cycle())
			for _, p := range watchPorts {
				fmt.Printf(" %s=%d", p.Name(), p.Peek())
			}
			fmt.Println()
		}
	}
	fmt.Printf("simulated %d cycles with kernel %s (stimulus: %s)\n", s.Cycle(), design.Kernel(), *drive)
	for _, name := range design.Outputs() {
		v, err := s.Peek(name)
		if err != nil {
			return err
		}
		fmt.Printf("  %-24s = %d\n", name, v)
	}
	return nil
}
