package kernel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Workers is the resident-worker runtime of the parallel engines: n
// goroutines parked on command channels, each standing for one worker index
// w (a lane shard of [Batch], a partition of repcut.Instance). It has one
// dispatch, a lock-step run ([Workers.Lockstep]), and no plain jobs: a body
// that needs no per-cycle barrier is a one-cycle run. The owner supplies
// per-worker bodies; the group owns the protocol — dispatch and join, the
// per-cycle barrier, panic recovery with cohort release, and teardown. A
// group of one runs every body inline on the caller's goroutine: nothing to
// dispatch to, nothing to recover into.
//
// The goroutines reference only their command channel and the group's
// [workerShared], never the Workers handle or the owner, and hold no command
// while parked. Dropping the owner therefore drops the handle, whose
// finalizer closes the channels and ends the goroutines; [Workers.Close]
// does the same deterministically. Bodies may capture the owner freely —
// a goroutine reaches them only while a dispatch is in flight — but the
// group never stores one: a handle reachable from itself is never finalized.
type Workers struct {
	cmds   []chan workerCmd // nil for a group of one
	sh     *workerShared
	closed bool
}

// workerCmd is one dispatch, sent by value: a lock-step run of k cycles.
type workerCmd struct {
	k     int
	cycle func(w, i int) bool
	after func(w, last int)
}

// workerShared is everything the goroutines touch besides their channel.
type workerShared struct {
	done   chan struct{}
	bar    barrier
	stopAt atomic.Int64 // first cycle at which a lock-step run stops; k = run to the end
	fault  atomic.Pointer[WorkerPanic]
}

// WorkerPanic is the panic value [Workers.Lockstep] re-raises on the
// dispatching goroutine after recovering a panic inside a resident worker,
// in a cycle body or in the epilogue: the worker releases its barrier cohort
// so peers drain cleanly, records the original value and stack here, and the
// dispatcher — having joined every worker — closes the group and re-panics
// with it. Callers that recover at their own boundary therefore see one
// panic, on their own goroutine, with the worker's stack attached, and
// never a wedged barrier or a leaked worker.
// The engine is poisoned (the panicking worker stopped mid-cycle, so its
// state is torn) and must be discarded.
type WorkerPanic struct {
	Val   any    // the worker's original panic value
	Stack []byte // the worker's stack at recovery
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("kernel: worker panic: %v", p.Val)
}

// NewWorkers starts a group of n workers (n >= 1). The workers are plain
// goroutines and must stay so: a party waiting at the barrier yields with
// runtime.Gosched, which on an unlocked goroutine is a run-queue check and
// on one locked to an OS thread is a futex hand-off to another thread and
// back — every cycle, on every waiting worker (a fifth of a partitioned
// run's samples when repcut's workers were pinned).
func NewWorkers(n int) *Workers {
	ws := &Workers{sh: &workerShared{}}
	ws.sh.bar.init(n)
	if n > 1 {
		ws.sh.done = make(chan struct{}, n)
		ws.cmds = make([]chan workerCmd, n)
		for w := range ws.cmds {
			ws.cmds[w] = make(chan workerCmd, 1)
			go ws.sh.loop(w, ws.cmds[w])
		}
		runtime.SetFinalizer(ws, (*Workers).Close)
	}
	return ws
}

// Close stops the goroutines. Idempotent; any dispatch afterwards panics.
func (ws *Workers) Close() {
	if ws.closed {
		return
	}
	ws.closed = true
	for _, c := range ws.cmds {
		close(c)
	}
	runtime.SetFinalizer(ws, nil)
}

// Lockstep runs up to k cycles (k >= 1) with every worker resident for the
// whole run: per cycle i each worker calls cycle(w, i) and then meets the
// others at one barrier. A cycle that returns true stops the run — every
// worker leaves after that cycle's barrier, so all of them complete exactly
// the same cycles — and Lockstep reports the completed count with stopped
// set; otherwise it reports (k, false). Once the cohort has stopped, after
// (if non-nil) runs on each worker with the index of the last completed
// cycle. A body that panics on a resident worker is re-raised here as a
// [*WorkerPanic] after the group has closed; in a group of one it is the
// caller's own panic, raw, and the group stays usable.
func (ws *Workers) Lockstep(k int, cycle func(w, i int) bool, after func(w, last int)) (ran int, stopped bool) {
	ws.sh.stopAt.Store(int64(k))
	ws.dispatch(workerCmd{k: k, cycle: cycle, after: after})
	if at := ws.sh.stopAt.Load(); at < int64(k) {
		return int(at) + 1, true
	}
	return k, false
}

// dispatch is the one broadcast/join: a command to every worker, a done
// from every worker, then the fault check.
func (ws *Workers) dispatch(c workerCmd) {
	if ws.closed {
		panic("kernel: workers used after Close")
	}
	if ws.cmds == nil {
		ws.sh.exec(0, c, new(int))
		return
	}
	for _, ch := range ws.cmds {
		ch <- c
	}
	for range ws.cmds {
		<-ws.sh.done
	}
	if f := ws.sh.fault.Swap(nil); f != nil {
		ws.Close()
		panic(f)
	}
	// The handle stays reachable until the join, so its finalizer cannot
	// close a channel the broadcast is still sending on.
	runtime.KeepAlive(ws)
}

// loop is the persistent goroutine of worker w.
func (s *workerShared) loop(w int, cmds <-chan workerCmd) {
	for c := range cmds {
		s.guard(w, c)
		s.done <- struct{}{}
	}
}

// guard executes one command inside the recovery boundary, so a panicking
// body never kills its worker or wedges the join: done is always sent and
// the first panic is recorded for the dispatcher. A worker that panics
// inside a lock-step cycle still owes that cycle's barrier — a body can
// only panic before its own await — so it publishes the owed cycle as the
// stop cycle and arrives: its peers, all in or about to enter that same
// cycle, cross the barrier, observe the stop and drain. (The owed cycle, not
// a value below it: a slow peer may still be reading stopAt to decide
// whether the previous cycle was the last, and must not be talked out of
// arriving at this one.) A panic in the epilogue owes nothing — every peer
// has already left the barrier behind.
func (s *workerShared) guard(w int, c workerCmd) {
	owed := -1
	defer func() {
		if r := recover(); r != nil {
			s.fault.CompareAndSwap(nil, &WorkerPanic{Val: r, Stack: debug.Stack()})
			if owed >= 0 {
				s.stopAt.Store(int64(owed))
				s.bar.await()
			}
		}
	}()
	s.exec(w, c, &owed)
}

// exec is the body of one command on worker w; *owed holds the index of the
// lock-step cycle whose barrier w has not crossed yet, -1 outside one.
func (s *workerShared) exec(w int, c workerCmd, owed *int) {
	last := -1
	for i := 0; i < c.k; i++ {
		*owed = i
		if c.cycle(w, i) {
			s.stopAt.Store(int64(i))
		}
		s.bar.await()
		*owed = -1
		last = i
		// Unconditional: stopAt holds k unless a cycle accepted or a peer
		// panicked, so every worker — accepting or not — leaves with the
		// cohort.
		if s.stopAt.Load() <= int64(i) {
			break
		}
	}
	if c.after != nil && last >= 0 {
		c.after(w, last)
	}
}

// barrier is a reusable generation-counter spin barrier for a fixed party
// count: the per-cycle synchronisation point of a [Workers.Lockstep] run.
// The last arriver resets the count and bumps the generation;
// everyone else spins (yielding, so hosts with fewer CPUs than parties make
// progress) until the generation moves. The yield is cheap only on a plain
// goroutine: never wait here on one locked to an OS thread (see
// [NewWorkers]). Atomic operations order everything published before
// a party's await before everything any party does after it.
type barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

// init sets the party count. Must be called before the first await and
// never while a wait is in flight.
func (b *barrier) init(n int) { b.n = int32(n) }

// await blocks until all n parties have arrived, then releases them.
func (b *barrier) await() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		// Reset before publishing the new generation: a released party may
		// re-enter await for the next cycle immediately.
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins >= 64 {
			runtime.Gosched()
		}
	}
}
