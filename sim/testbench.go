package sim

import (
	"errors"
	"fmt"

	"rteaal/internal/kernel"
	"rteaal/internal/testbench"
)

// Stimulus yields the value driven onto one primary input of one lane at
// one cycle. Values are pure functions of (cycle, lane, input) — never of
// call order — so the same stimulus replays bit-identically over a scalar
// [Session], a partitioned session, and every lane shape of a [Batch].
// Input indices follow [Design.Inputs]; sessions are lane 0.
type Stimulus interface {
	Value(cycle int64, lane, input int) uint64
}

// RandomStimulus drives every input with seeded pseudo-random values,
// approximating the toggle activity of a software workload. Each value is
// a hash of (seed, cycle, lane, input), so lanes decorrelate and replay is
// exact across engines.
func RandomStimulus(seed int64) Stimulus { return testbench.Random(seed) }

// ConstStimulus holds every input of every lane at a fixed value.
func ConstStimulus(v uint64) Stimulus { return testbench.Const(v) }

// StimulusFunc adapts a user function to a [Stimulus].
type StimulusFunc func(cycle int64, lane, input int) uint64

// Value calls the function.
func (f StimulusFunc) Value(cycle int64, lane, input int) uint64 { return f(cycle, lane, input) }

// Testbench is the transaction-level host frontend of §6.2 bound to one
// [Session] or [Batch]: named-signal DMI ports resolved once to LI-tensor
// coordinates, per-cycle stimulus drivers, and transaction helpers that
// work identically over the scalar, partitioned, and multi-lane batch
// engines. The per-cycle hot path is index-based — name maps are only
// consulted when a [Port] is created.
//
// A testbench shares the state of the session or batch it is bound to and
// inherits its concurrency contract: not safe for concurrent use.
type Testbench struct {
	d      *Design
	lanes  []testbench.Lane
	dmis   []*testbench.DMI
	stim   Stimulus
	inputs int
	cycle  func() int64
	// advance steps the bound session or batch one cycle (all lanes).
	advance func() error
	// bulk executes a multi-cycle run spec against the bound engine; the
	// funnel [Testbench.Run] and port waits compile into.
	bulk func(spec kernel.RunSpec) (ran int, stopped bool, err error)
	// cancel is the probe installed by [Testbench.SetCancel], threaded into
	// every bulk run as its [kernel.RunSpec.Cancel].
	cancel func() bool
}

// ErrRunCanceled is returned by [Testbench.Run], [Port.Wait], and the
// transaction helpers when the probe installed with [Testbench.SetCancel]
// stops a run before it completes. The engine state is consistent — the
// run ended at a cycle boundary every lane and partition crossed — and the
// cycles completed before cancellation are reflected in [Testbench.Cycle],
// so a canceled testbench remains usable.
var ErrRunCanceled = errors.New("sim: run canceled")

// SetCancel installs a cancellation probe polled at coarse chunk
// boundaries (every [kernel.CancelCheckCycles] cycles at most) during bulk
// runs: when the probe returns true, the surrounding Run, Wait, Transact,
// or Handshake stops at the next boundary and returns [ErrRunCanceled].
// This is how a server threads a request context's deadline into a
// resident engine run without putting a check in the per-cycle hot loop.
// A nil probe clears it. The probe is polled from the calling goroutine
// only, never from engine workers.
func (tb *Testbench) SetCancel(probe func() bool) { tb.cancel = probe }

// Testbench binds a transaction-level testbench to the session. The
// session remains usable directly; the testbench drives it through the
// same Step path (waveform capture and cycle counting included).
func (s *Session) Testbench() *Testbench {
	tb := &Testbench{
		d:       s.d,
		inputs:  len(s.d.tensor.InputSlots),
		cycle:   func() int64 { return s.cycle },
		advance: s.Step,
		bulk:    s.runBulk,
	}
	tb.bind([]testbench.Lane{s.eng})
	return tb
}

// Testbench binds a transaction-level testbench to the batch, exposing one
// DMI lane per batch lane. Stepping is global — all lanes advance together
// — while ports poke and peek individual lanes.
func (b *Batch) Testbench() *Testbench {
	lanes := make([]testbench.Lane, b.Lanes())
	for l := range lanes {
		lanes[l] = batchLane{b: b.b, lane: l}
	}
	tb := &Testbench{
		d:       b.d,
		inputs:  len(b.d.tensor.InputSlots),
		cycle:   func() int64 { return b.cycle },
		advance: func() error { b.Step(); return nil },
		bulk: func(spec kernel.RunSpec) (int, bool, error) {
			ran, stopped := b.runBulk(spec)
			return ran, stopped, nil
		},
	}
	tb.bind(lanes)
	return tb
}

func (tb *Testbench) bind(lanes []testbench.Lane) {
	tb.lanes = lanes
	tb.dmis = make([]*testbench.DMI, len(lanes))
	for l, lane := range lanes {
		tb.dmis[l] = testbench.New(lane, tb.d.signals, tb.tick)
		lane := l
		tb.dmis[l].SetBulkRun(func(maxCycles int, sig kernel.Signal, pred func(uint64) bool) (int, bool, error) {
			w := &kernel.Watch{Lane: lane, Slot: sig.Slot, OutIdx: -1, Pred: pred}
			if sig.Kind == kernel.SignalOutput {
				w.OutIdx = sig.Index
			}
			return tb.runBulk(maxCycles, w)
		})
	}
}

// batchLane is the poke/peek surface of one batch lane.
type batchLane struct {
	b    *kernel.Batch
	lane int
}

func (l batchLane) PokeInput(idx int, v uint64)   { l.b.PokeInput(l.lane, idx, v) }
func (l batchLane) PeekOutput(idx int) uint64     { return l.b.PeekOutput(l.lane, idx) }
func (l batchLane) PokeSlot(slot int32, v uint64) { l.b.PokeSlot(l.lane, slot, v) }
func (l batchLane) PeekSlot(slot int32) uint64    { return l.b.PeekSlot(l.lane, slot) }

// tick applies the stimulus (if any) to every lane, then advances the
// bound simulation one cycle. It is the single step path shared by Step,
// Run, Wait, and the transaction helpers.
func (tb *Testbench) tick() error {
	if tb.stim != nil {
		c := tb.cycle()
		for l, lane := range tb.lanes {
			testbench.Apply(tb.stim, c, l, tb.inputs, lane)
		}
	}
	return tb.advance()
}

// Lanes reports the number of drivable lanes (1 for a session).
func (tb *Testbench) Lanes() int { return len(tb.lanes) }

// Cycle reports completed cycles of the bound session or batch.
func (tb *Testbench) Cycle() int64 { return tb.cycle() }

// Signals lists every resolvable signal name: primary inputs, primary
// outputs, and architectural registers (by their design names).
func (tb *Testbench) Signals() []string { return tb.d.signals.Names() }

// Drive installs a stimulus applied to every lane's primary inputs before
// each cycle the testbench steps. A nil stimulus clears it. The stimulus
// re-drives every input, including inputs poked through ports — for pure
// transaction-level driving, leave the stimulus unset.
func (tb *Testbench) Drive(stim Stimulus) { tb.stim = stim }

// Step advances one cycle: stimulus first, then the underlying Step.
func (tb *Testbench) Step() error { return tb.tick() }

// Run advances n cycles as bulk engine runs: the installed stimulus is
// compiled into per-cycle poke plans and executed inside the engine's run
// loop, one dispatch per plan chunk instead of per cycle. Bit-identical to
// n calls of [Testbench.Step].
func (tb *Testbench) Run(n int64) error {
	for n > 0 {
		k := min(n, int64(1)<<30)
		if _, _, err := tb.runBulk(int(k), nil); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// planBudget caps how many planned pokes one bulk dispatch carries, so a
// long stimulus-driven run compiles into bounded chunks instead of one
// plan proportional to n × lanes × inputs.
const planBudget = 16384

// runBulk advances up to n cycles through the bound engine's bulk path,
// compiling the installed stimulus (if any) into scheduled poke plans —
// value of (cycle, lane, input) at its absolute cycle, exactly what tick
// would have poked — and threading the optional watch into the engine so
// predicate checks happen inside the run loop.
func (tb *Testbench) runBulk(n int, watch *kernel.Watch) (ran int, stopped bool, err error) {
	inSlots := tb.d.tensor.InputSlots
	chunk := n
	if tb.stim != nil {
		if per := len(tb.lanes) * tb.inputs; per > 0 {
			chunk = max(planBudget/per, 1)
		}
	}
	// One plan buffer, sized by the first (largest) chunk, serves every
	// chunk of the run: no engine keeps a plan past the bulk call it was
	// handed to. It is not kept on the testbench, so an idle session does
	// not hold planBudget entries live.
	var pokes []kernel.PlannedPoke
	for ran < n {
		k := min(n-ran, chunk)
		spec := kernel.RunSpec{Cycles: k, Watch: watch, Cancel: tb.cancel}
		if tb.stim != nil && tb.inputs > 0 {
			base := tb.cycle()
			if pokes == nil {
				pokes = make([]kernel.PlannedPoke, 0, k*len(tb.lanes)*tb.inputs)
			}
			pokes = pokes[:0]
			for c := 0; c < k; c++ {
				for l := range tb.lanes {
					for i := 0; i < tb.inputs; i++ {
						pokes = append(pokes, kernel.PlannedPoke{
							Cycle: c, Lane: l, Slot: inSlots[i],
							Value: tb.stim.Value(base+int64(c), l, i),
						})
					}
				}
			}
			spec.Pokes = pokes
		}
		r, s, err := tb.bulk(spec)
		ran += r
		if err != nil || s {
			return ran, s, err
		}
		if r < k {
			break
		}
	}
	// The only way a bulk run completes fewer cycles than asked without
	// stopping or erroring is the cancellation probe firing. A probe that
	// turns true only after the final chunk does not fail a completed run.
	if ran < n && tb.cancel != nil && tb.cancel() {
		return ran, false, ErrRunCanceled
	}
	return ran, false, nil
}

// Port resolves a named signal of lane 0 once; the returned port pokes and
// peeks by LI coordinate with no further lookups.
func (tb *Testbench) Port(name string) (*Port, error) { return tb.PortLane(name, 0) }

// PortLane resolves a named signal of one batch lane.
func (tb *Testbench) PortLane(name string, lane int) (*Port, error) {
	if lane < 0 || lane >= len(tb.lanes) {
		return nil, fmt.Errorf("sim: lane %d out of range [0,%d)", lane, len(tb.lanes))
	}
	p, err := tb.dmis[lane].Port(name)
	if err != nil {
		return nil, err
	}
	return &Port{p: p, lane: lane}, nil
}

// Transact runs one host transaction on lane 0: poke the request signals,
// step until the predicate on the named response signal holds or maxCycles
// pass, and return the response value. A nil predicate accepts the first
// cycle.
func (tb *Testbench) Transact(pokes map[string]uint64, resp string, ready func(uint64) bool, maxCycles int) (uint64, error) {
	return tb.TransactLane(0, pokes, resp, ready, maxCycles)
}

// TransactLane is [Testbench.Transact] against one batch lane. Stepping
// advances every lane; the transaction pokes and observes only this one.
func (tb *Testbench) TransactLane(lane int, pokes map[string]uint64, resp string, ready func(uint64) bool, maxCycles int) (uint64, error) {
	if lane < 0 || lane >= len(tb.lanes) {
		return 0, fmt.Errorf("sim: lane %d out of range [0,%d)", lane, len(tb.lanes))
	}
	return tb.dmis[lane].Transact(pokes, resp, ready, maxCycles)
}

// Handshake completes one valid/ready transfer on lane 0: drive the valid
// signal high along with the request payload, step until the ready signal
// is non-zero, then drop valid. It returns the number of cycles the
// transfer took.
func (tb *Testbench) Handshake(valid string, pokes map[string]uint64, ready string, maxCycles int) (int, error) {
	return tb.HandshakeLane(0, valid, pokes, ready, maxCycles)
}

// HandshakeLane is [Testbench.Handshake] against one batch lane.
func (tb *Testbench) HandshakeLane(lane int, valid string, pokes map[string]uint64, ready string, maxCycles int) (int, error) {
	if lane < 0 || lane >= len(tb.lanes) {
		return 0, fmt.Errorf("sim: lane %d out of range [0,%d)", lane, len(tb.lanes))
	}
	return tb.dmis[lane].Handshake(valid, pokes, ready, maxCycles)
}

// Port is one named signal of one lane resolved to its LI-tensor
// coordinate at construction: the index-based fast path for per-cycle
// host↔DUT exchange. Ports of partitioned sessions route pokes to exactly
// the partitions whose cones consume the signal and peeks to an
// authoritative partition, so transactions stay bit-identical to the
// scalar engine.
type Port struct {
	p    *testbench.Port
	lane int
}

// Name reports the signal name.
func (p *Port) Name() string { return p.p.Name() }

// Lane reports which lane the port is bound to (0 for sessions).
func (p *Port) Lane() int { return p.lane }

// Kind reports whether the port is an input, output, or register.
func (p *Port) Kind() string { return p.p.Signal().Kind.String() }

// Poke writes the signal: inputs through the input fast path, registers
// through their committed (Q) coordinate. Values are masked to the
// signal's width.
func (p *Port) Poke(v uint64) { p.p.Poke(v) }

// Peek reads the signal as of the last settle.
func (p *Port) Peek() uint64 { return p.p.Peek() }

// Wait steps the whole testbench (stimulus included, if one is set) until
// the predicate holds for the port's value, for at most maxCycles cycles,
// and returns the accepted value. The port is sampled after each full
// cycle; a nil predicate accepts the first. Timeout is an error.
func (p *Port) Wait(pred func(uint64) bool, maxCycles int) (uint64, error) {
	return p.p.Wait(pred, maxCycles)
}
