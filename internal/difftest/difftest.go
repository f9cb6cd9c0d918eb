// Package difftest is the reusable cross-engine differential-testing
// harness: it runs one design through every execution engine shape the
// repository ships — a scalar engine per kernel kind, RepCut-partitioned
// instances, the sim batch (sequential and lane-sharded), the wide batch
// schedule (sequential and lane-sharded), and the batch's reference loop
// (StepReference) — and reports the first bit divergence with its full
// coordinates (cycle, lane, engine pair, output/register index). A case is
// compiled once below sim (oim.Compile), and the §5.2 ladder — one tensor
// under seven mappings — is lowered from that one tensor, with a RepCut
// plan over it; the legs a user reaches through sim share one
// sim.CompileGraph per option set. One executor, Case.Execute, runs a case
// per cycle or in bulk-run chunks; every leg drives the case's stimulus
// inside its own run loop, as its users do, except StepReference, which is
// poked from the host one cycle at a time. Lane 0 of every leg is compared
// with the RU engine, every other lane with StepReference. The package also
// provides coverage-guided random design generation (generate.go), an
// automatic repro shrinker (shrink.go), and a content-addressed persistent
// corpus (corpus.go); together they back both the tier-1
// `differential_test.go` sweep and the long-running `rteaal-fuzz` driver.
// This is the GSIM/Manticore-style validation discipline: the parallel and
// specialised engines are only trusted because a reference semantics keeps
// re-checking them on inputs nobody hand-picked.
package difftest

import (
	"fmt"
	"slices"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
	"rteaal/internal/testbench"
	"rteaal/sim"
)

// Case is one differential-test input: a design plus the execution
// envelope (cycle count, lane count, stimulus seed). The stimulus itself
// is the pure (seed, cycle, lane, input) hash of testbench.Random, so a
// Case is a complete, self-contained reproduction recipe.
type Case struct {
	Graph    *dfg.Graph
	Cycles   int
	Lanes    int
	StimSeed int64
}

// Divergence pinpoints the first cross-engine disagreement: which engine
// broke from which reference, after which completed cycle (-1: at reset,
// before any), on which lane, and at which output or register slot.
type Divergence struct {
	Engine string `json:"engine"`
	Ref    string `json:"ref"`
	Cycle  int64  `json:"cycle"`
	Lane   int    `json:"lane"`
	// Kind is "output" or "register".
	Kind  string `json:"kind"`
	Index int    `json:"index"`
	Name  string `json:"name,omitempty"`
	Got   uint64 `json:"got"`
	Want  uint64 `json:"want"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s diverges from %s at cycle %d lane %d: %s[%d] (%s) = %#x, want %#x",
		d.Engine, d.Ref, d.Cycle, d.Lane, d.Kind, d.Index, d.Name, d.Got, d.Want)
}

// engine is one engine shape reduced to the surface the harness drives: a
// bulk run of n cycles that drives the matrix's stimulus itself (a step is
// run(1)), and per-lane observation. kind and parts are what was built: the
// kernel the engine runs and its effective partition count (0: none).
type engine struct {
	name  string
	lanes int
	kind  kernel.Kind
	parts int
	run   func(n int64) error
	out   func(lane, idx int) uint64
	regs  func(lane int) []uint64
	close func()
}

// Matrix instantiates every engine shape over one design and one stimulus.
// Close releases the underlying sessions and batches.
type Matrix struct {
	engines []engine
	oracle  int          // the StepReference leg, the reference of lanes >= 1
	ten     *oim.Tensor  // the case's one tensor; it names what is compared
	opt     *dfg.Graph   // the optimised graph ten was built from
	plan    *repcut.Plan // the P = 2 plan of the partitioned/n=2/TI leg
	lanes   int
	stim    testbench.Stimulus
	designs map[int]*sim.Design // sim's, by partition count, shared by its legs
}

// leg is one engine shape of the matrix: its RepCut partition count (0:
// none), its lane workers (0: one scalar engine, else one batch of the
// case's lanes on that many workers), and where it is built. A viaSim leg is
// reached through sim and runs sim's default kernel; every other leg lowers
// kind below sim from the case's one tensor.
type leg struct {
	name           string
	kind           kernel.Kind
	parts, workers int
	viaSim         bool
}

// stepReference names the oracle of lanes >= 1.
const stepReference = "batch/StepReference"

// legs lists the matrix. First the §5.2 ladder, one leg per kind: sim's
// default, IU, as a sim session, and the other six lowered with
// kernel.NewProgram. RU, first, is the reference of every other leg's lane
// 0: it executes the paper's Cascade 1 as written, so every shape is held to
// the paper's equations. Then RepCut (sim's plans at n = 2 and 3, and one
// lowered to a tape kernel, so both engine families cross the RUM
// exchange), sim's batch on one worker and sharded over three, the wide
// schedule a sim batch runs only when packing leaves no slot packed, and
// StepReference, the batch's reference loop: poked from the host one cycle
// at a time, it shares no stimulus or run-loop code with the legs it judges.
// TestMatrixCoversOptionSurface holds each leg to the kind and partition
// count in its name.
func legs() []leg {
	var ls []leg
	for _, k := range kernel.Kinds() {
		if k == sim.IU {
			ls = append(ls, leg{name: "session/IU", viaSim: true})
		} else {
			ls = append(ls, leg{name: "kernel/" + k.String(), kind: k})
		}
	}
	return append(ls,
		leg{name: "partitioned/n=2", parts: 2, viaSim: true},
		leg{name: "partitioned/n=3", parts: 3, viaSim: true},
		leg{name: "partitioned/n=2/TI", kind: kernel.TI, parts: 2},
		leg{name: "batch/packed", workers: 1, viaSim: true},
		leg{name: "batch/packed/w=3", workers: 3, viaSim: true},
		leg{name: "batch/wide", kind: kernel.IU, workers: 1},
		leg{name: "batch/wide/w=3", kind: kernel.IU, workers: 3},
		leg{name: stepReference, kind: kernel.IU, workers: 1},
	)
}

// NewMatrix compiles the design into all engine shapes, each bound to the
// stimulus it drives inside its own run loop. lanes must be >= 1;
// lane-parallel shapes use it as their batch width (workers clamp to it).
func NewMatrix(g *dfg.Graph, lanes int, stim testbench.Stimulus) (*Matrix, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("difftest: lanes must be >= 1, got %d", lanes)
	}
	ten, opt, err := oim.Compile(g)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	m := &Matrix{ten: ten, opt: opt, lanes: lanes, stim: stim, designs: map[int]*sim.Design{}}
	for _, l := range legs() {
		e, err := m.build(g, l)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
		if l.name == stepReference {
			m.oracle = len(m.engines)
		}
		m.engines = append(m.engines, e)
	}
	return m, nil
}

// build makes one leg's engine. A sim leg is driven as its users drive it,
// the stimulus installed on a testbench; below sim, every engine is handed
// the stimulus in its RunSpec.
func (m *Matrix) build(g *dfg.Graph, l leg) (engine, error) {
	e := engine{name: l.name, lanes: 1}
	if l.viaSim {
		d := m.designs[l.parts]
		if d == nil {
			var opts []sim.Option
			if l.parts > 0 {
				opts = append(opts, sim.WithPartitions(l.parts))
			}
			var err error
			if d, err = sim.CompileGraph(g, opts...); err != nil {
				return e, err
			}
			m.designs[l.parts] = d
		}
		e.kind = d.Kernel()
		if st, ok := d.PartitionStats(); ok {
			e.parts = st.Partitions
		}
		if l.workers == 0 {
			s := d.NewSession()
			tb := s.Testbench()
			tb.Drive(m.stim)
			e.run, e.close = tb.Run, s.Close
			e.out = func(_, idx int) uint64 { return s.PeekIndex(idx) }
			e.regs = func(int) []uint64 { return s.Registers() }
			return e, nil
		}
		b, err := d.NewBatchParallel(m.lanes, l.workers)
		if err != nil {
			return e, err
		}
		tb := b.Testbench()
		tb.Drive(m.stim)
		e.lanes, e.run, e.out, e.regs, e.close = m.lanes, tb.Run, b.PeekIndex, b.Registers, b.Close
		return e, nil
	}

	cfg := kernel.Config{Kind: l.kind}
	if l.parts > 0 {
		plan, err := repcut.NewPlan(m.ten, l.parts, nil)
		if err != nil {
			return e, err
		}
		progs, err := plan.Lower(cfg)
		if err != nil {
			return e, err
		}
		inst, err := plan.Instantiate(progs)
		if err != nil {
			return e, err
		}
		m.plan = plan
		e.kind, e.parts, e.close = progs[0].Kind(), plan.Stats().Partitions, inst.Close
		return m.scalar(e, inst), nil
	}
	prog, err := kernel.NewProgram(m.ten, cfg)
	if err != nil {
		return e, err
	}
	e.kind = prog.Kind()
	if l.workers == 0 {
		return m.scalar(e, prog.Instantiate()), nil
	}
	b, err := prog.InstantiateBatchWith(m.lanes, kernel.BatchOptions{Workers: l.workers})
	if err != nil {
		return e, err
	}
	e.lanes, e.run, e.out, e.close = m.lanes, m.bulk(b.RunBulk), b.PeekOutput, b.Close
	e.regs = func(lane int) []uint64 {
		return m.registers(func(q int32) uint64 { return b.PeekSlot(lane, q) })
	}
	if l.name == stepReference {
		var from int64
		e.run = func(n int64) error {
			for ; n > 0; n-- {
				for lane := 0; lane < m.lanes; lane++ {
					for in, slot := range m.ten.InputSlots {
						b.PokeSlot(lane, slot, m.stim.Value(from, lane, in))
					}
				}
				b.StepReference()
				from++
			}
			return nil
		}
	}
	return e, nil
}

// scalar binds a one-lane engine below sim.
func (m *Matrix) scalar(e engine, eng kernel.Engine) engine {
	e.run = m.bulk(eng.RunBulk)
	e.out = func(_, idx int) uint64 { return eng.PeekOutput(idx) }
	e.regs = func(int) []uint64 { return m.registers(eng.PeekSlot) }
	return e
}

// bulk runs n cycles of the stimulus in one RunSpec, at the absolute cycle.
func (m *Matrix) bulk(runBulk func(kernel.RunSpec) (int, bool)) func(int64) error {
	var from int64
	return func(n int64) error {
		runBulk(kernel.RunSpec{Cycles: int(n), Stim: m.stim, From: from})
		from += n
		return nil
	}
}

// registers reads the committed registers through their Q coordinates.
func (m *Matrix) registers(peek func(q int32) uint64) []uint64 {
	regs := make([]uint64, len(m.ten.RegSlots))
	for i, r := range m.ten.RegSlots {
		regs[i] = peek(r.Q)
	}
	return regs
}

// Close releases every engine's resources.
func (m *Matrix) Close() {
	for _, e := range m.engines {
		if e.close != nil {
			e.close()
		}
	}
	m.engines = nil
}

// state captures one engine lane's observable values: outputs then
// registers, in index order.
func (m *Matrix) state(e *engine, lane int) []uint64 {
	s := make([]uint64, 0, len(m.ten.OutputNames)+len(m.ten.RegNames))
	for idx := range m.ten.OutputNames {
		s = append(s, e.out(lane, idx))
	}
	return append(s, e.regs(lane)...)
}

// diverge converts a mismatching flat-state index into a Divergence.
func (m *Matrix) diverge(e, ref *engine, cycle int64, lane, flat int, got, want uint64) *Divergence {
	d := &Divergence{
		Engine: e.name, Ref: ref.name, Cycle: cycle, Lane: lane,
		Got: got, Want: want,
	}
	if outs := m.ten.OutputNames; flat < len(outs) {
		d.Kind, d.Index, d.Name = "output", flat, outs[flat]
	} else {
		d.Kind, d.Index = "register", flat-len(outs)
		if d.Index < len(m.ten.RegNames) {
			d.Name = m.ten.RegNames[d.Index]
		}
	}
	return d
}

// compare checks lane 0 of every engine against the RU engine and every
// further lane against StepReference, lane by lane, returning the first
// mismatch found after the given completed cycle. A leg that disagrees with
// RU on lane 0 while StepReference agrees with it is not blamed: the
// divergence reported is then RU's, from StepReference.
func (m *Matrix) compare(cycle int64) *Divergence {
	oracle := &m.engines[m.oracle]
	for lane := 0; lane < oracle.lanes; lane++ {
		ref := oracle
		if lane == 0 {
			ref = &m.engines[0]
		}
		want := m.state(ref, lane)
		for i := range m.engines {
			e := &m.engines[i]
			if e == ref || lane >= e.lanes {
				continue
			}
			got := m.state(e, lane)
			for j := range want {
				if got[j] != want[j] {
					if e != oracle && ref != oracle && slices.Equal(got, m.state(oracle, lane)) {
						return m.diverge(ref, oracle, cycle, lane, j, want[j], got[j])
					}
					return m.diverge(e, ref, cycle, lane, j, got[j], want[j])
				}
			}
		}
	}
	return nil
}

// Execute runs the case through one fresh engine matrix and returns the
// first divergence, or nil when every shape stays bit-exact. Every leg
// drives testbench.Random(c.StimSeed) itself, at the absolute cycle. With
// no chunks the matrix runs c.Cycles cycles one at a time; with chunks it
// runs one bulk run per chunk instead (k = 0 and k = 1 included), which
// pins every resident run loop to the per-cycle references. The matrix is
// compared after every run, and a divergence's cycle is the last one
// completed (-1 before the first). An error means a shape failed to build
// or run, not that engines disagreed.
func (c *Case) Execute(chunks ...int64) (*Divergence, error) {
	m, err := NewMatrix(c.Graph, c.Lanes, testbench.Random(c.StimSeed))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.execute(c, chunks)
}

// execute is Execute on a matrix built for c.
func (m *Matrix) execute(c *Case, chunks []int64) (*Divergence, error) {
	if len(chunks) == 0 {
		chunks = make([]int64, c.Cycles)
		for i := range chunks {
			chunks[i] = 1
		}
	}
	var done int64
	for _, k := range chunks {
		for i := range m.engines {
			if err := m.engines[i].run(k); err != nil {
				return nil, fmt.Errorf("%s: run(%d) at cycle %d: %w", m.engines[i].name, k, done, err)
			}
		}
		done += k
		if d := m.compare(done - 1); d != nil {
			return d, nil
		}
	}
	return nil, nil
}
