package sim

import (
	"errors"
	"fmt"
	"io"

	"rteaal/internal/kernel"
	"rteaal/internal/vcd"
)

// Session is one runnable simulation of a compiled [Design]. Each session
// owns its full mutable state — the LI value tensor, staged register
// commits, and sampled outputs — while the design's OIM tensor and kernel
// program stay shared and read-only. Distinct sessions of one design
// may be used from different goroutines concurrently; a single session is
// not safe for concurrent use.
type Session struct {
	d       *Design
	eng     kernel.Engine
	cycle   int64
	closed  bool
	wave    *vcd.Writer
	waveSig []int32  // slots sampled into the waveform
	waveBuf []uint64 // one sample, reused every cycle
}

// Design returns the compiled design this session simulates.
func (s *Session) Design() *Design { return s.d }

// Cycle reports completed cycles since construction or Reset.
func (s *Session) Cycle() int64 { return s.cycle }

// Poke drives a primary input by name.
func (s *Session) Poke(name string, v uint64) error {
	i, err := s.d.port(name, kernel.SignalInput)
	if err != nil {
		return err
	}
	s.eng.PokeInput(i, v)
	return nil
}

// Peek reads a primary output by name as sampled at the last settle.
func (s *Session) Peek(name string) (uint64, error) {
	i, err := s.d.port(name, kernel.SignalOutput)
	if err != nil {
		return 0, err
	}
	return s.eng.PeekOutput(i), nil
}

// PokeIndex drives the i-th primary input (order of [Design.Inputs]); the
// allocation-free fast path for generated stimulus.
func (s *Session) PokeIndex(i int, v uint64) { s.eng.PokeInput(i, v) }

// PeekIndex reads the i-th primary output (order of [Design.Outputs]).
func (s *Session) PeekIndex(i int) uint64 { return s.eng.PeekOutput(i) }

// PeekReg reads a register's committed value by index (order of
// [Session.Registers]).
func (s *Session) PeekReg(i int) uint64 { return s.eng.PeekSlot(s.d.tensor.RegSlots[i].Q) }

// Registers copies all committed register values.
func (s *Session) Registers() []uint64 { return s.eng.RegSnapshot() }

// Settle performs one combinational evaluation without committing
// registers, refreshing the sampled outputs.
func (s *Session) Settle() { s.eng.Settle() }

// pokeSlot, peekSlot and peekOutput are the session as a [Testbench]'s
// one-lane dut.
func (s *Session) pokeSlot(_ int, slot int32, v uint64) { s.eng.PokeSlot(slot, v) }
func (s *Session) peekSlot(_ int, slot int32) uint64    { return s.eng.PeekSlot(slot) }
func (s *Session) peekOutput(_, idx int) uint64         { return s.eng.PeekOutput(idx) }

// errClosed is what every cycle-advancing call answers after Close.
var errClosed = errors.New("sim: session used after Close")

// Step advances one clock cycle, sampling the waveform if enabled.
func (s *Session) Step() error {
	if s.closed {
		return errClosed
	}
	s.eng.Step()
	s.cycle++
	if s.wave != nil {
		for i, slot := range s.waveSig {
			s.waveBuf[i] = s.eng.PeekSlot(slot)
		}
		if err := s.wave.Sample(s.waveBuf); err != nil {
			return err
		}
	}
	return nil
}

// Run advances n cycles as one bulk run: engines with resident workers
// ([kernel.SpecRunner]: partitioned sessions) keep them resident for the
// whole run instead of paying a dispatch and join per cycle; every other
// engine runs the one per-cycle loop, [kernel.RunEngine]. With a waveform
// enabled that same loop steps through [Session.Step], so the VCD samples
// every cycle. Bit-identical to n calls of [Session.Step] either way.
func (s *Session) Run(n int64) error {
	for n > 0 {
		k := min(n, int64(1)<<30)
		if _, _, err := s.runBulk(kernel.RunSpec{Cycles: int(k)}); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// runBulk executes a [kernel.RunSpec] — up to Cycles cycles with scheduled
// pokes and an optional early-stop watch — against the session's engine,
// advancing the cycle counter by the completed count. This is the single
// funnel every bulk surface ([Session.Run], [Testbench]) drains into.
func (s *Session) runBulk(spec kernel.RunSpec) (ran int, stopped bool, err error) {
	if s.closed {
		return 0, false, errClosed
	}
	if spec.Cycles <= 0 {
		return 0, false, nil
	}
	if s.wave != nil {
		we := waveEngine{Engine: s.eng, s: s}
		ran, stopped = kernel.RunEngine(&we, spec)
		return ran, stopped, we.err
	}
	if sr, ok := s.eng.(kernel.SpecRunner); ok {
		ran, stopped = sr.RunBulk(spec)
	} else {
		ran, stopped = kernel.RunEngine(s.eng, spec)
	}
	s.cycle += int64(ran)
	return ran, stopped, nil
}

// waveEngine is the session's engine as [kernel.RunEngine] sees it while a
// waveform records: Step is [Session.Step] (cycle count + VCD sample). A
// write error cannot stop the run — Engine.Step has no way to say so — so it
// sticks, as it does inside the VCD writer, and surfaces when the run
// returns; the simulation itself completes every cycle it was asked for.
type waveEngine struct {
	kernel.Engine
	s   *Session
	err error
}

func (w *waveEngine) Step() {
	if err := w.s.Step(); err != nil && w.err == nil {
		w.err = err
	}
}

// Reset restores the initial state (the waveform keeps recording).
func (s *Session) Reset() {
	s.eng.Reset()
	s.cycle = 0
}

// Close releases session resources. Sessions of a partitioned design (see
// [WithPartitions]) hold one persistent worker goroutine per partition;
// Close stops them deterministically. Calling Close is optional — an
// unreachable session is cleaned up by the garbage collector — and a no-op
// for unpartitioned sessions. The session must not be used after Close; in
// particular, never Close a session checked out of a [Pool] — hand it back
// with [Pool.Put] instead ([Pool.Put] rejects closed sessions).
func (s *Session) Close() {
	s.closed = true
	if c, ok := s.eng.(interface{ Close() }); ok {
		c.Close()
	}
}

// EnableWaveform records every primary output and register to w as VCD,
// sampled once per Step. Every design keeps every register, so any session
// of any design may record one (§6.2).
func (s *Session) EnableWaveform(w io.Writer) error {
	t := s.d.tensor
	wr := vcd.NewWriter(w)
	var slots []int32
	add := func(name string, slot int32) error {
		// Width from the mask.
		width := 0
		for m := t.Masks[slot]; m != 0; m >>= 1 {
			width++
		}
		if width == 0 {
			width = 1
		}
		if err := wr.AddSignal(name, width); err != nil {
			return err
		}
		slots = append(slots, slot)
		return nil
	}
	for i, name := range t.OutputNames {
		if err := add(name, t.OutputSlots[i]); err != nil {
			return err
		}
	}
	for i, r := range t.RegSlots {
		name := fmt.Sprintf("reg_%d", i)
		if i < len(t.RegNames) && t.RegNames[i] != "" {
			name = t.RegNames[i]
		}
		if err := add(name, r.Q); err != nil {
			return err
		}
	}
	s.wave = wr
	s.waveSig = slots
	s.waveBuf = make([]uint64, len(slots))
	return nil
}

// CloseWaveform finalises the VCD stream.
func (s *Session) CloseWaveform() error {
	if s.wave == nil {
		return nil
	}
	err := s.wave.Close()
	s.wave = nil
	return err
}
