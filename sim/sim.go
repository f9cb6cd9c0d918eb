// Package sim is the public RTeAAL Sim API: compile a hardware design once,
// then simulate it many times, concurrently, and in batches.
//
// The package wraps the full compiler pipeline of the paper's Figure 14 —
// FIRRTL frontend, dataflow-graph optimisation, levelization with identity
// elision, OIM tensor generation, and kernel construction — behind three
// nouns:
//
//   - A [Design] is an immutable compiled artifact: the OIM tensor, the
//     kernel program lowered from it for one configuration, and the signal
//     name tables — the circuit as data, held once. Compiling is the
//     expensive step and happens exactly once per design.
//   - A [Session] is a cheap, independently-resettable simulation instance.
//     Any number of sessions share one design's read-only tensors; each owns
//     only its mutable value state, so sessions can run on different
//     goroutines at the same time.
//   - A [Batch] runs n input-vectors lock-step through a single
//     settle/commit schedule in structure-of-arrays layout — the multi-lane
//     path for serving many stimuli of one design at throughput.
//
// Minting a session allocates only its value state, so a server mints one
// per client lease and closes it on release rather than keeping a pool.
//
// [Compile] takes two options — [WithKernel] and [WithPartitions] — and a
// design is keyed by exactly those ([SourceHash]). The rule: an option exists
// when it changes the compiled artifact, has a caller in this tree that is
// not a test, a line in the hash's fingerprint, and a leg of
// internal/difftest's matrix. How a design is run is chosen where it is
// run: a batch's worker count is an argument of [Design.NewBatchParallel].
// [WithKernel] is the §5.2 ladder, in process: the seven kernels compute the
// same bits, and its callers are sim's own tests and the benchmark's per-kind
// rungs. examples/ablation and internal/difftest lower the ladder below sim,
// each kind from one tensor, and nothing that reaches a design from outside
// the process (the server's wire, cmd/rteaal) can pick a kernel.
// Every design keeps every register, so any session may record a waveform;
// the paper's other ablation axes (optimisation passes, the Figure 12a
// format, explicit register ownership) live where they are implemented, in
// internal/dfg, internal/oim and internal/repcut. A batch's layout is no
// option either: the schedule compiler bit-packs the slots it proves 1-bit
// wide and stores the rest wide (see [Batch]).
//
// Quickstart:
//
//	d, err := sim.Compile(src)
//	if err != nil { ... }
//	s := d.NewSession()
//	s.Poke("io_in", 3)
//	s.Run(100)
//	v, _ := s.Peek("count")
package sim

import "rteaal/internal/kernel"

// Kernel selects one of the seven progressively unrolled kernel
// configurations of §5.2. Each kernel keeps its predecessors' optimisations
// and adds one more; all produce bit-identical traces and differ only in
// control structure and speed. String returns the kernel's paper name (RU,
// OU, NU, PSU, IU, SU, or TI).
type Kernel = kernel.Kind

const (
	// RU unrolls only the one-hot R rank (Algorithm 3).
	RU = kernel.RU
	// OU fully unrolls the O rank (straight-line operand fetch).
	OU = kernel.OU
	// NU swizzles S and N and unrolls N into per-type inner loops.
	NU = kernel.NU
	// PSU partially unrolls the S loops (8x compute; the layer write-back
	// is elided by the LI layout); the scalable sweet spot the paper
	// identifies.
	PSU = kernel.PSU
	// IU fully unrolls the I rank, eliding zero-iteration S loops, and runs
	// each run with one rolled loop; the default.
	IU = kernel.IU
	// SU fully unrolls the S rank into a flat per-operation tape.
	SU = kernel.SU
	// TI additionally inlines the LO tensor away.
	TI = kernel.TI
)

// Kernels lists every kernel configuration in unrolling order.
func Kernels() []Kernel { return kernel.Kinds() }
