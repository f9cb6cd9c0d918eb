package sim

import (
	"errors"
	"fmt"
	"math"

	"rteaal/internal/kernel"
	"rteaal/internal/testbench"
)

// Stimulus yields the value driven onto one primary input of one lane at
// one cycle. Values are pure functions of (cycle, lane, input) — never of
// call order — so the same stimulus replays bit-identically over a scalar
// [Session], a partitioned session, and every lane shape of a [Batch].
// Input indices follow [Design.Inputs]; sessions are lane 0.
//
// The engine calls Value itself at the top of every cycle; a parallel batch
// or a partitioned session calls it from its workers, concurrently across
// lane shards and partitions, so Value must be safe for concurrent use.
type Stimulus = testbench.Stimulus

// RandomStimulus drives every input with seeded pseudo-random values,
// approximating the toggle activity of a software workload. Each value is
// a hash of (seed, cycle, lane, input), so lanes decorrelate and replay is
// exact across engines.
func RandomStimulus(seed int64) Stimulus { return testbench.Random(seed) }

// ConstStimulus holds every input of every lane at a fixed value.
func ConstStimulus(v uint64) Stimulus { return testbench.Const(v) }

// StimulusFunc adapts a user function of (cycle, lane, input) to a
// [Stimulus]; engine workers may call it concurrently.
type StimulusFunc = testbench.Func

// dut is what a [Testbench] drives: a [*Session] (one lane; the lane
// argument is ignored) or a [*Batch]. Ports reach the engine through it by
// LI coordinate, and every cycle a testbench advances goes through runBulk.
type dut interface {
	Cycle() int64
	pokeSlot(lane int, slot int32, v uint64)
	peekSlot(lane int, slot int32) uint64
	peekOutput(lane, idx int) uint64
	runBulk(spec kernel.RunSpec) (ran int, stopped bool, err error)
}

// Testbench is the transaction-level host frontend of §6.2 bound to one
// [Session] or [Batch]: named-signal ports resolved once to LI-tensor
// coordinates, a stimulus driver, and transaction helpers that work
// identically over the scalar, partitioned, and multi-lane batch engines.
// Every cycle it advances — [Testbench.Step], [Testbench.Run], [Port.Wait]
// and the helpers built on it — is a bulk run of the bound engine, which
// drives the stimulus itself at the top of every cycle; name maps are only
// consulted when a [Port] is created.
//
// A testbench shares the state of the session or batch it is bound to and
// inherits its concurrency contract: not safe for concurrent use.
type Testbench struct {
	d     *Design
	dut   dut
	lanes int
	stim  Stimulus
	// cancel is the probe installed by [Testbench.SetCancel], polled by
	// advance before every run it hands the engine.
	cancel func() bool
}

// ErrRunCanceled is returned by [Testbench.Step], [Testbench.Run],
// [Port.Wait], and the transaction helpers when the probe installed with
// [Testbench.SetCancel] stops a run before it completes. The engine state
// is consistent — the run ended at a cycle boundary every lane and
// partition crossed — and the cycles completed before cancellation are
// reflected in [Testbench.Cycle], so a canceled testbench remains usable.
var ErrRunCanceled = errors.New("sim: run canceled")

// SetCancel installs a cancellation probe. While it is installed, the
// testbench hands the engine runs of at most [kernel.CancelCheckCycles]
// cycles and polls the probe before each one: when it returns true, the
// surrounding Step, Run, Wait, Transact, or Handshake stops at that
// boundary and returns [ErrRunCanceled]. This is how a server threads a
// request context's deadline into a resident engine run without putting a
// check in the engine's loops. A nil probe clears it. The probe is polled
// from the calling goroutine only, never from engine workers.
func (tb *Testbench) SetCancel(probe func() bool) { tb.cancel = probe }

// Testbench binds a transaction-level testbench to the session. The
// session remains usable directly; the testbench drives it through the
// same bulk-run funnel [Session.Run] uses (waveform capture and cycle
// counting included).
func (s *Session) Testbench() *Testbench {
	return &Testbench{d: s.d, dut: s, lanes: 1}
}

// Testbench binds a transaction-level testbench to the batch, exposing one
// lane per batch lane. Stepping is global — all lanes advance together —
// while ports poke and peek individual lanes.
func (b *Batch) Testbench() *Testbench {
	return &Testbench{d: b.d, dut: b, lanes: b.Lanes()}
}

// checkLane rejects a lane index outside [0, lanes).
func checkLane(lane, lanes int) error {
	if lane < 0 || lane >= lanes {
		return fmt.Errorf("sim: lane %d out of range [0,%d)", lane, lanes)
	}
	return nil
}

// Lanes reports the number of drivable lanes (1 for a session).
func (tb *Testbench) Lanes() int { return tb.lanes }

// Cycle reports completed cycles of the bound session or batch.
func (tb *Testbench) Cycle() int64 { return tb.dut.Cycle() }

// Signals lists every resolvable signal name: primary inputs, primary
// outputs, and architectural registers (by their design names).
func (tb *Testbench) Signals() []string { return tb.d.signals.Names() }

// Drive installs a stimulus applied to every lane's primary inputs before
// each cycle the testbench steps. A nil stimulus clears it. The stimulus
// re-drives every input, including inputs poked through ports — for pure
// transaction-level driving, leave the stimulus unset. Engine workers may
// call it concurrently (see [Stimulus]).
func (tb *Testbench) Drive(stim Stimulus) { tb.stim = stim }

// Step advances one cycle: a one-cycle [Testbench.Run], cancel probe
// included. Prefer Run when nothing has to happen between cycles — a Step
// pays the engine's dispatch every cycle.
func (tb *Testbench) Step() error {
	_, err := advance(tb.dut, 1, tb.stim, nil, tb.cancel)
	return err
}

// Run advances n cycles as one bulk engine run — one per chunk while a
// cancellation probe is installed — with the installed stimulus driven
// inside the engine's run loop: one dispatch per run instead of per cycle.
// Bit-identical to poking the stimulus by hand before each of n single
// steps.
func (tb *Testbench) Run(n int64) error {
	_, err := advance(tb.dut, n, tb.stim, nil, tb.cancel)
	return err
}

// advance runs up to n cycles of a session or batch through its bulk path
// and is the one place a run is cut into chunks: only while a cancellation
// probe is installed, into chunks of at most [kernel.CancelCheckCycles]
// cycles, polling the probe before each.
// Every chunk hands the engine the stimulus (if any) with the absolute cycle
// it starts at, and the optional watch, so the engine drives the inputs and
// checks the predicate inside its own run loop. [Session.Run], [Batch.Run]
// and every cycle a [Testbench] advances go through it.
func advance(d dut, n int64, stim Stimulus, watch *kernel.Watch, cancel func() bool) (stopped bool, err error) {
	chunk := int64(math.MaxInt)
	if cancel != nil {
		chunk = kernel.CancelCheckCycles
	}
	for ran := int64(0); ran < n; {
		if cancel != nil && cancel() {
			return false, ErrRunCanceled
		}
		spec := kernel.RunSpec{Cycles: int(min(n-ran, chunk)), Stim: stim, From: d.Cycle(), Watch: watch}
		r, s, err := d.runBulk(spec)
		if err != nil || s {
			return s, err
		}
		ran += int64(r)
	}
	return false, nil
}

// Port resolves a named signal of lane 0 once; the returned port pokes and
// peeks by LI coordinate with no further lookups.
func (tb *Testbench) Port(name string) (*Port, error) { return tb.PortLane(name, 0) }

// PortLane resolves a named signal of one batch lane.
func (tb *Testbench) PortLane(name string, lane int) (*Port, error) {
	p, err := tb.port(name, lane)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// port is [Testbench.PortLane] by value: the transaction helpers resolve
// their signals through it without allocating.
func (tb *Testbench) port(name string, lane int) (Port, error) {
	if err := checkLane(lane, tb.lanes); err != nil {
		return Port{}, err
	}
	sig, ok := tb.d.signals.Resolve(name)
	if !ok {
		return Port{}, fmt.Errorf("sim: no signal named %q", name)
	}
	return Port{tb: tb, lane: lane, sig: sig}, nil
}

// pokeAll writes each named signal of one lane.
func (tb *Testbench) pokeAll(lane int, pokes map[string]uint64) error {
	for name, v := range pokes {
		p, err := tb.port(name, lane)
		if err != nil {
			return err
		}
		p.Poke(v)
	}
	return nil
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
	if err := tb.pokeAll(lane, pokes); err != nil {
		return 0, err
	}
	rp, err := tb.port(resp, lane)
	if err != nil {
		return 0, err
	}
	return rp.Wait(ready, maxCycles)
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
	vp, err := tb.port(valid, lane)
	if err != nil {
		return 0, err
	}
	if err := tb.pokeAll(lane, pokes); err != nil {
		return 0, err
	}
	vp.Poke(1)
	rp, err := tb.port(ready, lane)
	if err != nil {
		return 0, err
	}
	start := tb.Cycle()
	_, err = rp.Wait(func(v uint64) bool { return v != 0 }, maxCycles)
	// Drop valid on the timeout path too: a recoverable timeout must not
	// leave the DUT consuming phantom beats on later cycles.
	vp.Poke(0)
	return int(tb.Cycle() - start), err
}

// Port is one named signal of one lane resolved to its LI-tensor
// coordinate at construction: the index-based fast path for host↔DUT
// exchange at cycle boundaries. Ports of partitioned sessions poke every
// partition and peek an authoritative one, so transactions stay
// bit-identical to the scalar engine.
type Port struct {
	tb   *Testbench
	lane int
	sig  kernel.Signal
}

// Name reports the signal name.
func (p *Port) Name() string { return p.sig.Name }

// Lane reports which lane the port is bound to (0 for sessions).
func (p *Port) Lane() int { return p.lane }

// Kind reports whether the port is an input, output, or register.
func (p *Port) Kind() string { return p.sig.Kind.String() }

// Poke writes the signal's LI coordinate — the committed (Q) coordinate
// for a register — masked to the signal's width.
func (p *Port) Poke(v uint64) { p.tb.dut.pokeSlot(p.lane, p.sig.Slot, v) }

// Peek reads the signal as of the last settle: an output from the sampled
// outputs, an input or register from its LI coordinate.
func (p *Port) Peek() uint64 {
	if p.sig.Kind == kernel.SignalOutput {
		return p.tb.dut.peekOutput(p.lane, p.sig.Index)
	}
	return p.tb.dut.peekSlot(p.lane, p.sig.Slot)
}

// Wait steps the whole testbench (stimulus included, if one is set) until
// the predicate holds for the port's value, for at most maxCycles cycles,
// and returns the accepted value. The wait is an engine-level bulk run (one
// per chunk while a cancellation probe is installed) that stops the cycle
// the predicate accepts: the port is sampled after each full cycle, never
// before the first, and the predicate is evaluated once per completed
// cycle, in order. A nil predicate accepts the first cycle. Timeout is an
// error.
func (p *Port) Wait(pred func(uint64) bool, maxCycles int) (uint64, error) {
	w := kernel.Watch{Lane: p.lane, Slot: p.sig.Slot, OutIdx: -1, Pred: pred}
	if p.sig.Kind == kernel.SignalOutput {
		w.OutIdx = p.sig.Index
	}
	stopped, err := advance(p.tb.dut, int64(maxCycles), p.tb.stim, &w, p.tb.cancel)
	if err != nil {
		return 0, err
	}
	if !stopped {
		return 0, fmt.Errorf("sim: wait on %q timed out after %d cycles", p.sig.Name, maxCycles)
	}
	return p.Peek(), nil
}
