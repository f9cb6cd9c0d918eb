// Package difftest is the reusable cross-engine differential-testing
// harness: it runs one design through every execution engine shape the
// repository ships — a scalar session per kernel kind, RepCut-partitioned
// sessions, the sim batch (sequential and lane-sharded), the wide batch
// schedule (sequential and lane-sharded), and the batch's reference loop
// (StepReference) — and reports the first bit divergence with its full
// coordinates (cycle, lane, engine pair, output/register index). The
// package also provides coverage-guided random design generation
// (generate.go), an automatic repro shrinker (shrink.go), and a
// content-addressed persistent corpus (corpus.go); together they back both
// the tier-1 `differential_test.go` sweep and the long-running `rteaal-fuzz`
// driver. This is the GSIM/Manticore-style validation
// discipline: the parallel and specialised engines are only trusted because
// a reference semantics keeps re-checking them on inputs nobody hand-picked.
package difftest

import (
	"fmt"

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
// broke from which reference, at which cycle, on which lane, and at which
// output or register slot.
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

// engine is one engine shape reduced to the surface the harness drives:
// per-lane pokes, a global step, a bulk run, and per-lane observation.
type engine struct {
	name    string
	lanes   int
	outputs int
	poke    func(lane, input int, v uint64)
	step    func() error
	run     func(n int64) error
	out     func(lane, idx int) uint64
	regs    func(lane int) []uint64
	close   func()
}

// Matrix instantiates every engine shape over one design. Close releases
// the underlying sessions and batches.
type Matrix struct {
	engines  []engine
	inputs   int
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
// default, PSU, with no option), then one leg per non-default value of each
// other option — partitioned plans (one under a tape kernel, so both engine
// families cross the RUM exchange) — then a sim batch on one worker and one
// sharded over three. A batch's worker count is chosen where it is minted,
// and its layout is the schedule compiler's call, not an option: the wide
// schedule's legs are built below sim, in NewMatrix.
// TestMatrixCoversOptionSurface holds the list to that surface. The first leg, RU's session, is the
// reference every other leg is compared with: RU executes the paper's
// Cascade 1 as written, so every engine shape is held to the paper's
// equations.
func legs() []leg {
	var ls []leg
	for _, k := range sim.Kernels() {
		l := leg{name: "session/" + k.String()}
		if k != sim.PSU {
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

// NewMatrix compiles the design into all engine shapes. lanes must be >= 1;
// lane-parallel shapes use it as their batch width (workers clamp to it).
func NewMatrix(g *dfg.Graph, lanes int) (*Matrix, error) {
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

	for _, l := range legs() {
		d, err := sim.CompileGraph(g, l.opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", l.name, err)
		}
		m.inputs = len(d.Inputs())
		if l.workers == 0 {
			s := d.NewSession()
			m.engines = append(m.engines, engine{
				name:    l.name,
				lanes:   1,
				outputs: len(d.Outputs()),
				poke:    func(_, input int, v uint64) { s.PokeIndex(input, v) },
				step:    s.Step,
				run:     s.Run,
				out:     func(_, idx int) uint64 { return s.PeekIndex(idx) },
				regs:    func(int) []uint64 { return s.Registers() },
				close:   s.Close,
			})
			continue
		}
		b, err := d.NewBatchParallel(lanes, l.workers)
		if err != nil {
			return nil, fmt.Errorf("%s: batch: %w", l.name, err)
		}
		m.engines = append(m.engines, engine{
			name:    l.name,
			lanes:   lanes,
			outputs: len(d.Outputs()),
			poke:    func(lane, input int, v uint64) { b.PokeIndex(lane, input, v) },
			step:    func() error { b.Step(); return nil },
			run:     func(n int64) error { b.Run(n); return nil },
			out:     func(lane, idx int) uint64 { return b.PeekIndex(lane, idx) },
			regs:    func(lane int) []uint64 { return b.Registers(lane) },
			close:   b.Close,
		})
	}

	// The kernel-level legs share one program, built through the identical
	// (deterministic) compile pipeline: the wide schedule, which a sim batch
	// runs only when packing leaves no slot packed, sequential and
	// lane-sharded, and StepReference, the batch's reference loop, which
	// bypasses every scheduled run loop.
	opt, oerr := dfg.Optimize(g, dfg.DefaultOptOptions())
	if oerr != nil {
		return nil, fmt.Errorf("reference: optimize: %w", oerr)
	}
	lv, lerr := dfg.Levelize(opt)
	if lerr != nil {
		return nil, fmt.Errorf("reference: levelize: %w", lerr)
	}
	ten, terr := oim.Build(lv)
	if terr != nil {
		return nil, fmt.Errorf("reference: oim: %w", terr)
	}
	prog, perr := kernel.NewProgram(ten, kernel.Config{Kind: kernel.IU})
	if perr != nil {
		return nil, fmt.Errorf("reference: program: %w", perr)
	}
	for _, k := range []struct {
		name      string
		workers   int
		reference bool
	}{
		{"batch/wide", 1, false},
		{"batch/wide/w=3", 3, false},
		{"batch/StepReference", 1, true},
	} {
		b, err := prog.InstantiateBatchWith(lanes, kernel.BatchOptions{Workers: k.workers})
		if err != nil {
			return nil, fmt.Errorf("%s: batch: %w", k.name, err)
		}
		e := engine{
			name:    k.name,
			lanes:   lanes,
			outputs: len(ten.OutputSlots),
			poke:    func(lane, input int, v uint64) { b.PokeSlot(lane, ten.InputSlots[input], v) },
			step:    func() error { b.Run(1); return nil },
			run:     func(n int64) error { b.Run(int(n)); return nil },
			out:     b.PeekOutput,
			regs: func(lane int) []uint64 {
				regs := make([]uint64, len(ten.RegSlots))
				for i, r := range ten.RegSlots {
					regs[i] = b.PeekSlot(lane, r.Q)
				}
				return regs
			},
			close: b.Close,
		}
		if k.reference {
			e.step = func() error { b.StepReference(); return nil }
			e.run = func(n int64) error {
				for ; n > 0; n-- {
					b.StepReference()
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
	s := make([]uint64, 0, e.outputs+len(m.regNames))
	for idx := 0; idx < e.outputs; idx++ {
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
	if flat < e.outputs {
		d.Kind, d.Index = "output", flat
		if flat < len(m.outNames) {
			d.Name = m.outNames[flat]
		}
	} else {
		d.Kind, d.Index = "register", flat-e.outputs
		if d.Index < len(m.regNames) {
			d.Name = m.regNames[d.Index]
		}
	}
	return d
}

// compareAll checks every engine's lane 0 against engine 0 and every wide
// engine's extra lanes against the first wide engine, returning the first
// mismatch found after the given completed cycle.
func (m *Matrix) compareAll(cycle int64) *Divergence {
	ref := &m.engines[0]
	refState := m.state(ref, 0)
	for i := 1; i < len(m.engines); i++ {
		e := &m.engines[i]
		got := m.state(e, 0)
		for j := range refState {
			if got[j] != refState[j] {
				return m.diverge(e, ref, cycle, 0, j, got[j], refState[j])
			}
		}
	}
	var wide *engine
	var wideStates [][]uint64
	for i := range m.engines {
		e := &m.engines[i]
		if e.lanes < 2 {
			continue
		}
		if wide == nil {
			wide = e
			wideStates = make([][]uint64, e.lanes)
			for lane := 1; lane < e.lanes; lane++ {
				wideStates[lane] = m.state(e, lane)
			}
			continue
		}
		for lane := 1; lane < e.lanes && lane < len(wideStates); lane++ {
			got := m.state(e, lane)
			want := wideStates[lane]
			for j := range want {
				if got[j] != want[j] {
					return m.diverge(e, wide, cycle, lane, j, got[j], want[j])
				}
			}
		}
	}
	return nil
}

// pokeAll applies the stimulus for one cycle to every engine and lane.
func (m *Matrix) pokeAll(stim testbench.Stimulus, cycle int64) {
	for i := range m.engines {
		e := &m.engines[i]
		for lane := 0; lane < e.lanes; lane++ {
			for in := 0; in < m.inputs; in++ {
				e.poke(lane, in, stim.Value(cycle, lane, in))
			}
		}
	}
}

// Execute runs the case through a fresh engine matrix cycle by cycle and
// returns the first divergence, or nil when every shape stays bit-exact.
// An error means a shape failed to build or step, not that engines
// disagreed.
func (c *Case) Execute() (*Divergence, error) {
	m, err := NewMatrix(c.Graph, c.Lanes)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	stim := testbench.Random(c.StimSeed)
	for cyc := int64(0); cyc < int64(c.Cycles); cyc++ {
		m.pokeAll(stim, cyc)
		for i := range m.engines {
			if err := m.engines[i].step(); err != nil {
				return nil, fmt.Errorf("%s: step %d: %w", m.engines[i].name, cyc, err)
			}
		}
		if d := m.compareAll(cyc); d != nil {
			return d, nil
		}
	}
	return nil, nil
}

// ExecuteBulk is the Run(k)-vs-k×Step leg: two fresh matrices over the same
// design, one advanced in the given bulk-run chunks (k=0 and k=1 included),
// one stepped cycle by cycle, with identical stimulus applied at chunk
// boundaries and held across each chunk. States observed at the boundaries
// must match pairwise per shape and across shapes; this pins the resident
// run loops (batch free-run, partitioned barrier loop, session funnel) both
// to their own per-cycle path and to each other. The reported cycle is the
// cumulative cycle count at the offending boundary.
func (c *Case) ExecuteBulk(chunks []int64) (*Divergence, error) {
	bulk, err := NewMatrix(c.Graph, c.Lanes)
	if err != nil {
		return nil, err
	}
	defer bulk.Close()
	step, err := NewMatrix(c.Graph, c.Lanes)
	if err != nil {
		return nil, err
	}
	defer step.Close()

	stim := testbench.Random(c.StimSeed)
	var done int64
	for ci, k := range chunks {
		done += k
		for i := range bulk.engines {
			b, s := &bulk.engines[i], &step.engines[i]
			for lane := 0; lane < b.lanes; lane++ {
				for in := 0; in < bulk.inputs; in++ {
					v := stim.Value(int64(ci), lane, in)
					b.poke(lane, in, v)
					s.poke(lane, in, v)
				}
			}
			if err := b.run(k); err != nil {
				return nil, fmt.Errorf("%s: run(%d): %w", b.name, k, err)
			}
			for cyc := int64(0); cyc < k; cyc++ {
				if err := s.step(); err != nil {
					return nil, fmt.Errorf("%s: step: %w", s.name, err)
				}
			}
			for lane := 0; lane < b.lanes; lane++ {
				bs, ss := bulk.state(b, lane), step.state(s, lane)
				for j := range bs {
					if bs[j] != ss[j] {
						d := bulk.diverge(b, s, done, lane, j, bs[j], ss[j])
						d.Ref = b.name + "/stepped"
						return d, nil
					}
				}
			}
		}
		if d := bulk.compareAll(done); d != nil {
			return d, nil
		}
	}
	return nil, nil
}
