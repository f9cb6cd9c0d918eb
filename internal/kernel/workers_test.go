package kernel

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// dispatchRecover runs f, which must return within the deadline (a wedged
// barrier or a lost done would hang it), and reports what it panicked with.
func dispatchRecover(t *testing.T, f func()) (recovered any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case recovered = <-done:
		return recovered
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("dispatch wedged\n%s", buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestWorkersPanicReraise: a panic inside a lock-step cycle, inside the
// epilogue, or inside a plain Do job — on one worker of the cohort — is
// re-raised exactly once on the dispatcher as a *WorkerPanic carrying the
// original value and the worker's stack; the group closes itself, no peer
// is left at the barrier, and every goroutine exits.
func TestWorkersPanicReraise(t *testing.T) {
	const k = 50
	for _, n := range []int{2, 5} {
		for _, tc := range []struct {
			name string
			run  func(ws *Workers, bad int, cycles, afters *atomic.Int64)
		}{
			{"cycle", func(ws *Workers, bad int, cycles, afters *atomic.Int64) {
				ws.Lockstep(k, func(w, i int) bool {
					if w == bad && i == 3 {
						panic("boom")
					}
					cycles.Add(1)
					return false
				}, func(w, last int) { afters.Add(1) })
			}},
			{"epilogue", func(ws *Workers, bad int, cycles, afters *atomic.Int64) {
				ws.Lockstep(k, func(w, i int) bool { cycles.Add(1); return i == 3 }, func(w, last int) {
					if w == bad {
						panic("boom")
					}
					afters.Add(1)
				})
			}},
			{"do", func(ws *Workers, bad int, cycles, afters *atomic.Int64) {
				ws.Do(func(w int) {
					if w == bad {
						panic("boom")
					}
					afters.Add(1)
				})
			}},
		} {
			base := runtime.NumGoroutine()
			ws := NewWorkers(n)
			var cycles, afters atomic.Int64
			bad := n - 1
			rec := dispatchRecover(t, func() { tc.run(ws, bad, &cycles, &afters) })
			wp, ok := rec.(*WorkerPanic)
			if !ok {
				t.Fatalf("n=%d %s: dispatcher saw %v (%T), want *WorkerPanic", n, tc.name, rec, rec)
			}
			if wp.Val != "boom" || len(wp.Stack) == 0 {
				t.Fatalf("n=%d %s: WorkerPanic{Val: %v, %d stack bytes}", n, tc.name, wp.Val, len(wp.Stack))
			}
			// Every peer completed its share and left: the panicking worker
			// released cycle 3's barrier, the others drained through their
			// epilogue.
			switch tc.name {
			case "cycle":
				if got, want := cycles.Load(), int64(4*n-1); got != want {
					t.Fatalf("n=%d cycle: %d cycle bodies completed, want %d", n, got, want)
				}
				fallthrough
			default:
				if got, want := afters.Load(), int64(n-1); got != want {
					t.Fatalf("n=%d %s: %d peers finished, want %d", n, tc.name, got, want)
				}
			}
			// Closed, and saying so with the one message.
			if rec := dispatchRecover(t, func() { ws.Do(func(int) {}) }); rec != "kernel: workers used after Close" {
				t.Fatalf("n=%d %s: Do on the poisoned group panicked with %v", n, tc.name, rec)
			}
			ws.Close() // idempotent
			waitGoroutines(t, base)
		}
	}
}

// TestWorkersPanicLateCycleStress pins the release rule against its race:
// with more workers than CPUs a peer can still be deciding whether cycle
// i-1 was the last when a fast worker panics in cycle i. The release must
// not talk that peer out of arriving at barrier i (publishing a stop below
// every cycle did), or the panicking worker waits there forever.
func TestWorkersPanicLateCycleStress(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 200; round++ {
		ws := NewWorkers(5)
		rec := dispatchRecover(t, func() {
			ws.Lockstep(64, func(w, i int) bool {
				if w == 0 && i == 1+round%40 {
					panic(round)
				}
				if w == 4 {
					runtime.Gosched() // a straggler
				}
				return false
			}, nil)
		})
		if wp, ok := rec.(*WorkerPanic); !ok || wp.Val != round {
			t.Fatalf("round %d: dispatcher saw %v", round, rec)
		}
	}
	waitGoroutines(t, base)
}

// TestWorkersInlinePanic: a group of one runs bodies on the caller's
// goroutine, so a panic is the caller's own — raw, with the group still
// usable.
func TestWorkersInlinePanic(t *testing.T) {
	ws := NewWorkers(1)
	if rec := dispatchRecover(t, func() { ws.Do(func(int) { panic("mine") }) }); rec != "mine" {
		t.Fatalf("inline panic surfaced as %v", rec)
	}
	ran := false
	ws.Do(func(int) { ran = true })
	if !ran {
		t.Fatal("group of one unusable after an inline panic")
	}
}

// TestWorkersLockstepStopAt is the stop-at arithmetic: whichever worker's
// cycle accepts, every worker completes exactly the cycles up to and
// including that one, and the epilogue sees its index.
func TestWorkersLockstepStopAt(t *testing.T) {
	const k = 9
	base := runtime.NumGoroutine()
	for _, n := range []int{1, 2, 5} {
		for _, tc := range []struct {
			name        string
			accept      func(w, i int) bool
			wantRan     int
			wantStopped bool
		}{
			{"cycle-0", func(w, i int) bool { return w == n-1 && i == 0 }, 1, true},
			{"last-cycle", func(w, i int) bool { return w == 0 && i == k-1 }, k, true},
			{"two-workers-same-cycle", func(w, i int) bool { return i == 4 && (w == 0 || w == n-1) }, 5, true},
			{"never", func(w, i int) bool { return false }, k, false},
		} {
			ws := NewWorkers(n)
			per := make([]int, n)                // cycles completed by worker w
			lasts := make([]int, n)              // epilogue argument of worker w
			for round := 0; round < 2; round++ { // the group is reusable
				clear(per)
				ran, stopped := ws.Lockstep(k, func(w, i int) bool {
					per[w]++
					return tc.accept(w, i)
				}, func(w, last int) { lasts[w] = last })
				if ran != tc.wantRan || stopped != tc.wantStopped {
					t.Fatalf("n=%d %s: Lockstep = (%d,%v), want (%d,%v)", n, tc.name, ran, stopped, tc.wantRan, tc.wantStopped)
				}
				for w := range per {
					if per[w] != ran || lasts[w] != ran-1 {
						t.Fatalf("n=%d %s: worker %d ran %d cycles, epilogue saw %d; want %d and %d",
							n, tc.name, w, per[w], lasts[w], ran, ran-1)
					}
				}
			}
			ws.Close()
		}
	}
	waitGoroutines(t, base)
}

// TestLockstepMoreWorkersThanProcs: with one P and three workers, a party
// waiting at the barrier makes progress only by yielding — the workers are
// plain goroutines, so the yield is a run-queue switch, not a hand-off
// between OS threads. 2,000 lock-step cycles with a stop at a random cycle
// must finish in seconds and compute what one worker computes.
func TestLockstepMoreWorkersThanProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const k = 2000
	stopAt := rand.New(rand.NewSource(time.Now().UnixNano())).Intn(k)
	run := func(n int) (sum uint64, ran int, stopped bool) {
		ws := NewWorkers(n)
		defer ws.Close()
		sums := make([]uint64, n) // worker w folds the cycles it ran
		rec := dispatchRecover(t, func() {
			ran, stopped = ws.Lockstep(k, func(w, i int) bool {
				sums[w] = sums[w]*31 + uint64(i)
				return w == n-1 && i == stopAt
			}, nil)
		})
		if rec != nil {
			t.Fatalf("n=%d: %v", n, rec)
		}
		for w := range sums {
			if sums[w] != sums[0] {
				t.Fatalf("n=%d stop at %d: worker %d folded %#x, worker 0 %#x", n, stopAt, w, sums[w], sums[0])
			}
		}
		return sums[0], ran, stopped
	}
	wantSum, wantRan, wantStopped := run(1)
	if wantRan != stopAt+1 || !wantStopped {
		t.Fatalf("n=1: ran %d stopped %v, want a stop after cycle %d", wantRan, wantStopped, stopAt)
	}
	if sum, ran, stopped := run(3); sum != wantSum || ran != wantRan || stopped != wantStopped {
		t.Fatalf("n=3 stop at %d: (%#x, %d, %v), n=1 gave (%#x, %d, %v)", stopAt, sum, ran, stopped, wantSum, wantRan, wantStopped)
	}
}

// TestBatchFinalizerStopsWorkers: a parallel batch dropped without Close
// has its resident workers stopped by the garbage collector — they
// reference only the group's shared state, so nothing keeps the batch or
// the group's handle alive once the caller lets go.
func TestBatchFinalizerStopsWorkers(t *testing.T) {
	prog, err := NewProgram(bulkCounterTensor(t), Config{Kind: PSU})
	if err != nil {
		t.Fatal(err)
	}
	base := quiescedGoroutines()
	func() {
		b, err := prog.InstantiateBatchWith(4, BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		b.PokeInput(3, 0, 1)
		b.Run(5)
		b.RunBulk(RunSpec{Cycles: 5, Watch: &Watch{Lane: 3, OutIdx: 0, Pred: func(v uint64) bool { return v == 7 }}})
		b.Settle()
		if got := b.PeekOutput(3, 0); got != 8 {
			t.Fatalf("count = %d, want 8", got)
		}
		if runtime.NumGoroutine() < base+2 {
			t.Fatalf("expected 2 resident workers, goroutines %d → %d", base, runtime.NumGoroutine())
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("workers of a dropped batch still running: %d goroutines, want <= %d", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// quiescedGoroutines returns the goroutine count once it has stopped
// moving: workers closed by earlier tests exit asynchronously, and counting
// them into a baseline would hide a leak or fake one.
func quiescedGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}
