// Package difftest is the reusable cross-engine differential-testing
// harness: it runs one design through every execution engine shape the
// repository ships — a scalar session per kernel kind, RepCut-partitioned
// sessions, the sim batch (sequential and lane-sharded), the wide batch
// schedule (sequential and lane-sharded), and the batch's reference loop
// (StepReference) — and reports the first bit divergence with its full
// coordinates (cycle, lane, engine pair, output/register index). One
// executor, Case.Execute, runs a case per cycle or in bulk-run chunks; every
// leg drives the case's stimulus inside its own run loop, as its users do,
// except StepReference, which is poked from the host one cycle at a time.
// Lane 0 of every leg is compared with the RU session, every other lane with
// StepReference. The package also provides coverage-guided random design
// generation (generate.go), an automatic repro shrinker (shrink.go), and a
// content-addressed persistent corpus (corpus.go); together they back both
// the tier-1 `differential_test.go` sweep and the long-running `rteaal-fuzz`
// driver. This is the GSIM/Manticore-style validation
// discipline: the parallel and specialised engines are only trusted because
// a reference semantics keeps re-checking them on inputs nobody hand-picked.
package difftest

import (
	"fmt"
	"slices"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
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
// run(1)), and per-lane observation.
type engine struct {
	name  string
	lanes int
	run   func(n int64) error
	out   func(lane, idx int) uint64
	regs  func(lane int) []uint64
	close func()
}

// Matrix instantiates every engine shape over one design and one stimulus.
// Close releases the underlying sessions and batches.
type Matrix struct {
	engines []engine
	// oracle indexes the StepReference leg, the reference of lanes >= 1.
	oracle   int
	outNames []string
	regNames []string
}

// leg is one engine shape of the matrix: a design compiled with the given
// options and driven as one session (workers == 0), or as one batch of the
// case's lanes minted on that many lane workers.
type leg struct {
	name    string
	workers int
	opts    []sim.Option
}

// legs derives the matrix from sim's compile surface, so what is tested
// follows what a user can reach: one session per kernel of sim.Kernels (the
// default, IU, with no option), then one leg per non-default value of each
// other option — partitioned plans (one under a tape kernel, so both engine
// families cross the RUM exchange) — then a sim batch on one worker and one
// sharded over three. A batch's worker count is chosen where it is minted,
// and its layout is the schedule compiler's call, not an option: the wide
// schedule's legs are built below sim, in NewMatrix.
// TestMatrixCoversOptionSurface holds the list to that surface. The first
// leg, RU's session, is the reference of every other leg's lane 0: RU
// executes the paper's Cascade 1 as written, so every engine shape is held
// to the paper's equations.
func legs() []leg {
	var ls []leg
	for _, k := range sim.Kernels() {
		l := leg{name: "session/" + k.String()}
		if k != sim.IU {
			l.opts = []sim.Option{sim.WithKernel(k)}
		}
		ls = append(ls, l)
	}
	return append(ls,
		leg{name: "partitioned/n=2", opts: []sim.Option{sim.WithPartitions(2)}},
		leg{name: "partitioned/n=3", opts: []sim.Option{sim.WithPartitions(3)}},
		leg{name: "partitioned/n=2/TI", opts: []sim.Option{sim.WithPartitions(2), sim.WithKernel(sim.TI)}},
		leg{name: "batch/packed", workers: 1},
		leg{name: "batch/packed/w=3", workers: 3},
	)
}

// compile is the pipeline sim runs below its options: the default passes,
// levelization, the OIM tensor. It also returns the optimised graph, which
// Features inspects.
func compile(g *dfg.Graph) (*dfg.Graph, *oim.Tensor, error) {
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("optimize: %w", err)
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		return nil, nil, fmt.Errorf("levelize: %w", err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		return nil, nil, fmt.Errorf("oim: %w", err)
	}
	return opt, ten, nil
}

// NewMatrix compiles the design into all engine shapes, each bound to the
// stimulus it drives inside its own run loop. lanes must be >= 1;
// lane-parallel shapes use it as their batch width (workers clamp to it).
func NewMatrix(g *dfg.Graph, lanes int, stim testbench.Stimulus) (*Matrix, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("difftest: lanes must be >= 1, got %d", lanes)
	}
	m := &Matrix{}
	ok := false
	defer func() {
		if !ok {
			m.Close()
		}
	}()

	// The sim legs run the stimulus the way their users do: installed on a
	// testbench, driven by the engine at the top of every cycle of a run.
	for _, l := range legs() {
		d, err := sim.CompileGraph(g, l.opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", l.name, err)
		}
		if l.workers == 0 {
			s := d.NewSession()
			tb := s.Testbench()
			tb.Drive(stim)
			m.engines = append(m.engines, engine{
				name:  l.name,
				lanes: 1,
				run:   tb.Run,
				out:   func(_, idx int) uint64 { return s.PeekIndex(idx) },
				regs:  func(int) []uint64 { return s.Registers() },
				close: s.Close,
			})
			continue
		}
		b, err := d.NewBatchParallel(lanes, l.workers)
		if err != nil {
			return nil, fmt.Errorf("%s: batch: %w", l.name, err)
		}
		tb := b.Testbench()
		tb.Drive(stim)
		m.engines = append(m.engines, engine{
			name:  l.name,
			lanes: lanes,
			run:   tb.Run,
			out:   b.PeekIndex,
			regs:  b.Registers,
			close: b.Close,
		})
	}

	// The kernel-level legs share one program, built through the same
	// pipeline: the wide schedule, which a sim batch runs only when packing
	// leaves no slot packed, sequential and lane-sharded, each handed the
	// stimulus in its RunSpec; and StepReference, the batch's reference loop,
	// which bypasses every scheduled run loop and is poked from the host one
	// cycle at a time, so the oracle shares no stimulus or run-loop code with
	// the legs it judges.
	_, ten, err := compile(g)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	prog, err := kernel.NewProgram(ten, kernel.Config{Kind: kernel.IU})
	if err != nil {
		return nil, fmt.Errorf("reference: program: %w", err)
	}
	for _, k := range []struct {
		name    string
		workers int
	}{{"batch/wide", 1}, {"batch/wide/w=3", 3}, {"batch/StepReference", 1}} {
		b, err := prog.InstantiateBatchWith(lanes, kernel.BatchOptions{Workers: k.workers})
		if err != nil {
			return nil, fmt.Errorf("%s: batch: %w", k.name, err)
		}
		var from int64
		e := engine{
			name:  k.name,
			lanes: lanes,
			run: func(n int64) error {
				b.RunBulk(kernel.RunSpec{Cycles: int(n), Stim: stim, From: from})
				from += n
				return nil
			},
			out: b.PeekOutput,
			regs: func(lane int) []uint64 {
				regs := make([]uint64, len(ten.RegSlots))
				for i, r := range ten.RegSlots {
					regs[i] = b.PeekSlot(lane, r.Q)
				}
				return regs
			},
			close: b.Close,
		}
		if k.name == "batch/StepReference" {
			m.oracle = len(m.engines)
			e.run = func(n int64) error {
				for ; n > 0; n-- {
					for lane := 0; lane < lanes; lane++ {
						for in, slot := range ten.InputSlots {
							b.PokeSlot(lane, slot, stim.Value(from, lane, in))
						}
					}
					b.StepReference()
					from++
				}
				return nil
			}
		}
		m.engines = append(m.engines, e)
	}
	m.outNames = append([]string(nil), ten.OutputNames...)
	m.regNames = append([]string(nil), ten.RegNames...)
	ok = true
	return m, nil
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
	s := make([]uint64, 0, len(m.outNames)+len(m.regNames))
	for idx := range m.outNames {
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
	if flat < len(m.outNames) {
		d.Kind, d.Index, d.Name = "output", flat, m.outNames[flat]
	} else {
		d.Kind, d.Index = "register", flat-len(m.outNames)
		if d.Index < len(m.regNames) {
			d.Name = m.regNames[d.Index]
		}
	}
	return d
}

// compare checks lane 0 of every engine against the RU session and every
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
	if len(chunks) == 0 {
		chunks = make([]int64, c.Cycles)
		for i := range chunks {
			chunks[i] = 1
		}
	}
	m, err := NewMatrix(c.Graph, c.Lanes, testbench.Random(c.StimSeed))
	if err != nil {
		return nil, err
	}
	defer m.Close()
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
