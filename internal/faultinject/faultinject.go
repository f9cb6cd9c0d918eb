// Package faultinject is a deterministic fault-injection registry for
// exercising the serving stack's failure paths in tests.
//
// Production code declares named injection points by calling [Fire] at the
// places where faults are interesting (compile, run dispatch, session
// minting, response writing). Tests arm a point with [Arm], providing a
// [Hook] that decides — deterministically, from the per-point hit counter
// and an optional seed — whether to inject and what the fault looks like:
// the hook may return an error (injected as an ordinary failure), panic
// (exercising panic-isolation paths), or sleep (exercising deadlines).
//
// The registry is build-tag free: it compiles into production binaries,
// where the disarmed fast path is a single atomic load and no allocation.
// Points are never armed outside tests.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site. Sites are compiled into the serving stack
// and do nothing until a test arms them.
type Point string

// Injection points wired into the serving stack.
const (
	// CompilePanic fires inside the design cache's single-flight compile
	// section, before the compiler runs.
	CompilePanic Point = "compile-panic"
	// CompileFail fires at the same place; returning an error injects a
	// compile failure without invoking the compiler (feeds the breaker).
	CompileFail Point = "compile-fail"
	// RunPanic fires at the start of command-list execution, inside the
	// exec recovery boundary.
	RunPanic Point = "run-panic"
	// SlowRun fires at the start of command-list execution; a sleeping
	// hook simulates a run that outlives its deadline.
	SlowRun Point = "slow-run"
	// SessionPanic fires inside session/batch instantiation.
	SessionPanic Point = "session-panic"
	// PoolExhausted fires inside session creation; returning an error
	// injects backpressure without filling the design's capacity.
	PoolExhausted Point = "pool-exhausted"
	// ConnDrop fires just before a command-list response is written; the
	// handler aborts the connection, leaving the client with a transport
	// error for work the server already performed.
	ConnDrop Point = "conn-drop"
	// EngineDefect fires after each completed bulk dispatch in the batch
	// engine's run funnel (kernel.Batch); an arming hook that returns an
	// error flips one register bit on lane 0, simulating a miscompiled
	// schedule. Every scheduled batch shape routes through the funnel while
	// the scalar sessions and the StepReference oracle do not, so the
	// differential harness must catch it — this is how the fuzzer and the
	// shrinker are validated end to end.
	EngineDefect Point = "engine-defect"
)

// Hook decides what happens at an armed point. hit is the 1-based number
// of times the point has fired since it was armed, so hooks are
// deterministic without wall-clock or global randomness. A nil return
// means "no fault this hit". Hooks may panic or sleep; they are invoked
// outside the registry lock.
type Hook func(hit uint64) error

type entry struct {
	hook Hook
	hits atomic.Uint64
}

var (
	armed atomic.Int32 // number of armed points; fast-path gate
	mu    sync.Mutex
	reg   map[Point]*entry
)

// Arm installs hook at point p, replacing any previous hook, and returns a
// disarm function. Arming resets the point's hit counter.
func Arm(p Point, hook Hook) (disarm func()) {
	if hook == nil {
		panic("faultinject: nil hook")
	}
	mu.Lock()
	if reg == nil {
		reg = make(map[Point]*entry)
	}
	if _, ok := reg[p]; !ok {
		armed.Add(1)
	}
	e := &entry{hook: hook}
	reg[p] = e
	mu.Unlock()
	return func() {
		mu.Lock()
		if reg[p] == e {
			delete(reg, p)
			armed.Add(-1)
		}
		mu.Unlock()
	}
}

// Reset disarms every point. Intended for test cleanup.
func Reset() {
	mu.Lock()
	for p := range reg {
		delete(reg, p)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Fire triggers point p. With no hook armed it is a single atomic load.
// With a hook armed it increments the point's hit counter and invokes the
// hook outside the registry lock, returning (or propagating the panic of)
// whatever the hook does.
func Fire(p Point) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	e := reg[p]
	mu.Unlock()
	if e == nil {
		return nil
	}
	return e.hook(e.hits.Add(1))
}

// Hits reports how many times point p has fired since it was armed, or 0
// if it is not armed.
func Hits(p Point) uint64 {
	mu.Lock()
	e := reg[p]
	mu.Unlock()
	if e == nil {
		return 0
	}
	return e.hits.Load()
}

// Always returns a hook that injects on every hit.
func Always(f func() error) Hook {
	return func(uint64) error { return f() }
}

// FirstN returns a hook that injects on the first n hits and is inert
// afterwards.
func FirstN(n uint64, f func() error) Hook {
	return func(hit uint64) error {
		if hit <= n {
			return f()
		}
		return nil
	}
}

// OnHit returns a hook that injects only on the given 1-based hit.
func OnHit(n uint64, f func() error) Hook {
	return func(hit uint64) error {
		if hit == n {
			return f()
		}
		return nil
	}
}

// Seeded returns a hook that injects on a deterministic pseudo-random
// subset of hits: the fraction of injecting hits approaches rate, and the
// same (seed, rate) always selects the same hits. rate is clamped to
// [0, 1].
func Seeded(seed uint64, rate float64, f func() error) Hook {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	threshold := uint64(rate * float64(^uint64(0)>>1) * 2)
	return func(hit uint64) error {
		if mix64(seed^hit) < threshold {
			return f()
		}
		return nil
	}
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Panicf returns an action that panics with a formatted message. Use with
// Always/FirstN/OnHit to exercise panic-isolation paths.
func Panicf(format string, args ...any) func() error {
	msg := fmt.Sprintf(format, args...)
	return func() error { panic("faultinject: " + msg) }
}

// Error returns an action that injects err.
func Error(err error) func() error {
	return func() error { return err }
}

// Sleep returns an action that blocks for d and then injects no fault.
// Use to push a run past its deadline.
func Sleep(d time.Duration) func() error {
	return func() error { time.Sleep(d); return nil }
}
