package sim

import (
	"fmt"
	"io"

	"rteaal/internal/dfg"
	"rteaal/internal/firrtl"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
)

// config is the resolved compilation configuration an option list produces:
// one field per [Option], and nothing else. It is the whole key of a design —
// [SourceHash] writes [config.fingerprint] and the source, [CompileGraph]
// reads these two fields and no other input — so two option lists that
// resolve to equal configs name interchangeable designs by construction.
type config struct {
	kernel     Kernel
	partitions int // 0 = unpartitioned
}

// resolve applies an option list, in order, to what an empty list compiles.
func resolve(opts []Option) config {
	cfg := config{kernel: IU}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// fingerprint is the option half of [SourceHash]: every field, written once.
// TestSourceHashOptionSensitivity walks the struct by reflection, so a field
// added above without a line here fails tier-1.
func (c config) fingerprint() string {
	return fmt.Sprintf("kernel=%s\npartitions=%d\n", c.kernel, c.partitions)
}

// Option configures compilation. Options are applied in order; later options
// win. There are two; the package comment states the rule that keeps it so.
type Option func(*config)

// WithKernel selects the kernel configuration: the §5.2 ladder, in process.
// The default is [IU], the fastest kernel on the benchmark's designs; [PSU]
// is the paper's sweet spot (Figure 16). Every kernel computes the same bits,
// so only sim's own tests and the benchmark's per-kind rungs pick one here;
// examples/ablation and internal/difftest lower the ladder below sim, from
// one tensor, and the server and cmd/rteaal compile the default.
func WithKernel(k Kernel) Option {
	return func(c *config) { c.kernel = k }
}

// WithPartitions compiles the design for RepCut-style partitioned
// simulation (§8, Cascade 2): registers are split across n partitions, each
// replicating the combinational cone its next-states need, and every
// session minted by the design runs one persistent worker goroutine per
// partition with a differential register exchange at each cycle boundary.
// The partition plan and per-partition kernel programs are built once at
// compile time; sessions stay cheap. Partitioned sessions serve the same
// [Session] surface and produce traces
// bit-identical to unpartitioned sessions. Which registers share a
// partition is decided by the min-cut planner: it minimises first what the
// slowest partition does in a cycle, then replicated logic plus exchanged
// registers.
//
// A request exceeding the register count is clamped; [Design.PartitionStats]
// reports the effective count, replication factor, and cut size. n < 1 is a
// compile error.
func WithPartitions(n int) Option {
	return func(c *config) {
		c.partitions = n
		if n < 1 {
			c.partitions = -1 // distinguishable from the unset default; rejected at compile
		}
	}
}

// Design is an immutable compiled design: the OIM tensor (the circuit, held
// once as flat run-length arrays), the kernel program over it for the
// selected configuration, and one sorted name table that resolves signals to
// LI coordinates — what a [Session] or [Batch] reads, and nothing the
// compiler only passed through (the dataflow graph is dropped once the
// tensor is built). All simulation state lives in the sessions and
// batches a design mints, so one design can back any number of concurrent
// simulations.
type Design struct {
	tensor *oim.Tensor
	prog   *kernel.Program
	cfg    config
	// signals resolves every named signal (inputs, outputs, registers) to
	// its LI coordinate and port index, built once at compile time: by name
	// alone for [Testbench] ports, by name and class for Poke and Peek.
	signals kernel.SignalMap

	// plan and partProgs are set when the design was compiled with
	// [WithPartitions]: the immutable partition plan and the per-partition
	// kernel programs, both built once and shared by every session. Such a
	// design's sessions run on the partition programs, and prog only hosts
	// its batch schedule.
	plan      *repcut.Plan
	partProgs []*kernel.Program
}

// Compile parses FIRRTL source text and runs the full Figure 14 pipeline.
func Compile(src string, opts ...Option) (*Design, error) {
	g, err := firrtl.ParseAndElaborate(src)
	if err != nil {
		return nil, err
	}
	return CompileGraph(g, opts...)
}

// CompileGraph compiles an already-built dataflow graph. The input graph is
// not modified, and neither it nor the optimized copy the pipeline works on
// is retained by the design.
func CompileGraph(g *dfg.Graph, opts ...Option) (*Design, error) {
	cfg := resolve(opts)
	// Reject bad options before the expensive Figure 14 pipeline runs.
	if cfg.partitions < 0 {
		return nil, fmt.Errorf("sim: WithPartitions needs at least one partition")
	}
	// The passes keep every register, so any session of any design may
	// call [Session.EnableWaveform] (§6.2).
	t, _, err := oim.Compile(g)
	if err != nil {
		return nil, err
	}
	d := &Design{tensor: t, cfg: cfg, signals: kernel.NewSignalMap(t)}
	if d.prog, err = kernel.NewProgram(t, kernel.Config{Kind: cfg.kernel}); err != nil {
		return nil, err
	}
	if cfg.partitions == 0 {
		return d, nil
	}
	if d.plan, err = repcut.NewPlan(t, cfg.partitions, nil); err != nil {
		return nil, err
	}
	if d.partProgs, err = d.plan.Lower(kernel.Config{Kind: cfg.kernel}); err != nil {
		return nil, err
	}
	return d, nil
}

// port resolves the name of a primary input or output to its port index.
func (d *Design) port(name string, kind kernel.SignalKind) (int, error) {
	sig, ok := d.signals.ResolveKind(name, kind)
	if !ok {
		return 0, fmt.Errorf("sim: no %v named %q", kind, name)
	}
	return sig.Index, nil
}

// Name reports the circuit name.
func (d *Design) Name() string { return d.tensor.Design }

// Kernel reports the configuration the design was compiled for.
func (d *Design) Kernel() Kernel { return d.cfg.kernel }

// Inputs lists the primary input names in port order. Poke indices follow
// this order.
func (d *Design) Inputs() []string {
	return append([]string(nil), d.tensor.InputNames...)
}

// Outputs lists the primary output names in port order. Peek indices follow
// this order.
func (d *Design) Outputs() []string {
	return append([]string(nil), d.tensor.OutputNames...)
}

// Signals lists every name a [Testbench] port can bind: primary inputs,
// primary outputs, and architectural registers, sorted. When one name is
// used by several classes, inputs shadow outputs, which shadow registers.
func (d *Design) Signals() []string { return d.signals.Names() }

// Stats summarises the compiled design.
type Stats struct {
	// Design is the circuit name.
	Design string
	// Ops counts effectual operations in the OIM (identities elided).
	Ops int
	// Layers is the levelization depth.
	Layers int
	// Slots is the LI tensor size (coordinates).
	Slots int
	// Registers counts architectural registers.
	Registers int
	// Inputs and Outputs count primary ports.
	Inputs, Outputs int
	// Density is the OIM occupancy fraction.
	Density float64
	// EffectualOps and IdentityOps carry the Table 1 accounting from
	// levelization: identities are counted, then elided.
	EffectualOps, IdentityOps int64
}

// Stats reports compile-time figures for the design.
func (d *Design) Stats() Stats {
	t := d.tensor
	return Stats{
		Design:       t.Design,
		Ops:          t.TotalOps(),
		Layers:       t.NumLayers(),
		Slots:        t.NumSlots,
		Registers:    len(t.RegSlots),
		Inputs:       len(t.InputSlots),
		Outputs:      len(t.OutputSlots),
		Density:      t.Density(),
		EffectualOps: t.EffectualOps,
		IdentityOps:  t.IdentityOps,
	}
}

// WriteOIM serialises the design's OIM tensor as JSON, the compiler output
// format of Figure 14.
func (d *Design) WriteOIM(w io.Writer) error { return d.tensor.WriteJSON(w) }

// NewSession mints an independent simulation instance over the shared
// compiled program. Sessions are cheap — only the mutable value state is
// allocated — and distinct sessions may run concurrently.
//
// For designs compiled with [WithPartitions] the session is transparently
// backed by a partitioned instance: Step fans one cycle out over the
// persistent per-partition workers and synchronises registers through the
// differential RUM exchange, while the full [Session] surface (Poke/Peek by
// name and index, Step, Registers, Reset, waveforms, Close) is
// unchanged and bit-identical to an unpartitioned session.
func (d *Design) NewSession() *Session {
	if d.plan != nil {
		inst, err := d.plan.Instantiate(d.partProgs)
		if err != nil {
			// The programs were lowered from this very plan at compile
			// time, so a pairing failure is an internal invariant break.
			panic("sim: partition plan rejected its own programs: " + err.Error())
		}
		return &Session{d: d, eng: inst}
	}
	return &Session{d: d, eng: d.prog.Instantiate()}
}

// PartitionStats reports the partition plan of a design compiled with
// [WithPartitions]. ok is false for unpartitioned designs.
func (d *Design) PartitionStats() (stats PartitionStats, ok bool) {
	if d.plan == nil {
		return PartitionStats{}, false
	}
	return d.plan.Stats(), true
}

// PartitionStats summarises a design's RepCut partition plan: what the
// replication-aided cuts cost in duplicated logic and what the differential
// register exchange pays every cycle. Partitions is the effective count,
// Requested the [WithPartitions] argument before clamping to the register
// count.
type PartitionStats = repcut.PlanStats

// NewBatch mints an n-lane lock-step simulation over the shared tensor; see
// [Batch]. The batch-specialised schedule is compiled once per design and
// shared by all its batches. Its lanes run in the caller, on one worker;
// [Design.NewBatchParallel] shards them.
func (d *Design) NewBatch(n int) (*Batch, error) {
	return d.NewBatchParallel(n, 1)
}

// NewBatchParallel mints an n-lane batch sharded over the given number of
// persistent lane workers: each runs the full batch schedule over its own
// contiguous lane block, so a wide batch scales with cores while every lane
// still produces exactly the trace a dedicated [Session] would. The count is
// clamped to n; 1 is the sequential in-caller path. Parallel batches should
// be released with [Batch.Close].
func (d *Design) NewBatchParallel(n, workers int) (*Batch, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sim: batch needs at least 1 worker, got %d", workers)
	}
	b, err := d.prog.InstantiateBatchWith(n, kernel.BatchOptions{Workers: workers, Packing: true})
	if err != nil {
		return nil, err
	}
	return &Batch{d: d, b: b}, nil
}
