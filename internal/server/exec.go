package server

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"

	"rteaal/internal/faultinject"
	"rteaal/internal/testbench"
	"rteaal/sim"
)

// panicFault is a recovered panic carried as an error through the exec
// layer so handlers can map it to a typed 500 and quarantine the resource
// it escaped from.
type panicFault struct {
	val any
}

func (p *panicFault) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// recoveredPanic is what every recovery site turns recover()'s value into.
// It must be called from the deferred function itself, while the panicking
// frames are still on the goroutine's stack: the client only sees "panic:
// <val>", so the log line written here is the one place the stack survives.
func recoveredPanic(where string, val any) *panicFault {
	log.Printf("server: recovered panic in %s: %v\n%s", where, val, debug.Stack())
	return &panicFault{val: val}
}

// asPanicFault unwraps err to a *panicFault if one is in the chain.
// Kernel-level worker panics (kernel.WorkerPanic) surface as real panics
// re-raised on the dispatching goroutine and are caught by the recover in
// runCommandsRecover, so a single type covers both origins here.
func asPanicFault(err error) (*panicFault, bool) {
	var pf *panicFault
	if err != nil && errors.As(err, &pf) {
		return pf, true
	}
	return nil, false
}

// runCommandsRecover is the panic boundary for command execution: a panic
// anywhere in the batch — a kernel worker fault re-raised by the dispatch
// join, or a bug in the exec path itself — is converted to a *panicFault
// error instead of unwinding into the HTTP stack. The outcomes and cycle
// count accumulated before the panic are lost by design: a panicked engine's
// state is suspect, so the caller quarantines the session rather than
// reporting a prefix.
func runCommandsRecover(tb *sim.Testbench, cmds []testbench.Command) (outcomes []testbench.Outcome, cycles int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			outcomes, cycles = nil, 0
			err = recoveredPanic("run", r)
		}
	}()
	if ferr := faultinject.Fire(faultinject.RunPanic); ferr != nil {
		panic(ferr)
	}
	if ferr := faultinject.Fire(faultinject.SlowRun); ferr != nil {
		// SlowRun hooks sleep inside Fire; an error return additionally
		// fails the batch, letting tests model a stall that errors out.
		return nil, 0, ferr
	}
	return runCommands(tb, cmds)
}

// runCommands executes a validated wire command batch in order against a
// session's testbench, returning one Outcome per completed command and the
// total cycles the batch consumed. Execution stops at the first failing
// command (unknown signal, wait timeout, bad lane); the completed prefix
// and its outcomes are still returned — the engine state they produced is
// real, so the client sees exactly how far the batch got.
//
// maxCyclesPerCommand is the server's cycle-budget policy: a command whose
// cycle budget (a step's cycles, a transact, handshake or wait's
// max_cycles) exceeds it is rejected before it runs rather than clamped,
// so a client is told about the policy instead of silently getting a
// shorter wait.
//
// Step and transact/handshake commands are bulk engine runs — through
// [sim.Testbench.Run] and [sim.Port.Wait]: a step-k or a long transact
// costs one worker dispatch on the session's engine per
// kernel.CancelCheckCycles cycles (the server always installs a
// cancellation probe), not k Go-level round-trips — per-cycle dispatch
// overhead on the serve path is paid per chunk, not per simulated cycle.
func runCommands(tb *sim.Testbench, cmds []testbench.Command) ([]testbench.Outcome, int64, error) {
	outcomes := make([]testbench.Outcome, 0, len(cmds))
	start := tb.Cycle()
	for i := range cmds {
		c := &cmds[i]
		budget := int64(c.MaxCycles)
		if c.Op == testbench.OpStep {
			budget = c.Cycles
		}
		if budget > maxCyclesPerCommand {
			return outcomes, tb.Cycle() - start, fmt.Errorf("command %d (%s): %d cycles exceed the per-command budget of %d",
				i, c.Op, budget, maxCyclesPerCommand)
		}
		out := testbench.Outcome{Op: c.Op, Lane: c.Lane, Signal: c.Signal}
		before := tb.Cycle()
		var err error
		switch c.Op {
		case testbench.OpPoke:
			var p *sim.Port
			if p, err = tb.PortLane(c.Signal, c.Lane); err == nil {
				p.Poke(c.Value)
				out.Value = c.Value
			}
		case testbench.OpPeek:
			var p *sim.Port
			if p, err = tb.PortLane(c.Signal, c.Lane); err == nil {
				out.Value = p.Peek()
			}
		case testbench.OpStep:
			err = tb.Run(c.Cycles)
		case testbench.OpTransact:
			out.Signal = c.Resp
			out.Value, err = tb.TransactLane(c.Lane, c.Pokes, c.Resp, c.Until.Pred(), c.MaxCycles)
		case testbench.OpHandshake:
			out.Signal = c.Valid
			var waited int
			waited, err = tb.HandshakeLane(c.Lane, c.Valid, c.Pokes, c.Ready, c.MaxCycles)
			out.Value = uint64(waited)
		case testbench.OpWait:
			// The predicate rides the engine's early-stop Watch, so the
			// session halts at the exact accepting cycle — no chunk
			// overshoot.
			var p *sim.Port
			if p, err = tb.PortLane(c.Signal, c.Lane); err == nil {
				out.Value, err = p.Wait(c.Until.Pred(), c.MaxCycles)
			}
		default:
			// DecodeCommands validated the op; this is a programming error.
			err = fmt.Errorf("unexecutable op %q", c.Op)
		}
		out.Cycles = tb.Cycle() - before
		if err != nil {
			return outcomes, tb.Cycle() - start, fmt.Errorf("command %d (%s): %w", i, c.Op, err)
		}
		outcomes = append(outcomes, out)
	}
	return outcomes, tb.Cycle() - start, nil
}
