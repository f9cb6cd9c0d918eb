package repcut

import (
	"runtime"
	"testing"
	"time"

	"rteaal/internal/kernel"
)

// TestInstanceWorkerPanicRecovery: a panic inside one partition's worker
// (a watch predicate here, standing in for any torn evaluation) must
// release the barrier cohort — every peer partition drains instead of
// spinning at the cycle barrier — stop the workers, and re-raise on the
// dispatching goroutine as a *kernel.WorkerPanic. No worker goroutine may
// outlive the poisoned instance.
func TestInstanceWorkerPanicRecovery(t *testing.T) {
	base := runtime.NumGoroutine()
	ten := build(t, bulkCounterGraph())
	for _, parts := range []int{2, 3} {
		before := runtime.NumGoroutine()
		_, in := instantiate(t, ten, parts, kernel.PSU)
		pokeInput(in, 0, 3)
		pokeInput(in, 1, 2)

		var recovered any
		func() {
			defer func() { recovered = recover() }()
			// The watch coordinate pins the panic to whichever partition
			// owns output countB; its peers must still drain.
			in.RunBulk(kernel.RunSpec{Cycles: 1000, Watch: &kernel.Watch{
				OutIdx: 1,
				Pred:   func(uint64) bool { panic("injected predicate crash") },
			}})
		}()
		wp, ok := recovered.(*kernel.WorkerPanic)
		if !ok {
			t.Fatalf("parts %d: dispatcher re-raised %v (%T), want *kernel.WorkerPanic", parts, recovered, recovered)
		}
		if wp.Val != "injected predicate crash" || len(wp.Stack) == 0 {
			t.Fatalf("parts %d: WorkerPanic = {Val: %v, %d stack bytes}", parts, wp.Val, len(wp.Stack))
		}
		in.Close() // idempotent on the already-stopped instance

		// Every partition worker exited: the barrier release drained the
		// cohort rather than leaving peers resident mid-run.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("parts %d: worker goroutines leaked: %d, want <= %d\n%s",
					parts, runtime.NumGoroutine(), before, buf[:n])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if runtime.NumGoroutine() > base {
		t.Fatalf("goroutines leaked across the test: %d, started with %d", runtime.NumGoroutine(), base)
	}
}

// TestInstancePanicPeerInstancesSurvive: poisoning is per-instance — an
// independent instance of the same plan keeps simulating correctly after
// a sibling's worker panicked.
func TestInstancePanicPeerInstancesSurvive(t *testing.T) {
	ten := build(t, bulkCounterGraph())
	_, victim := instantiate(t, ten, 2, kernel.PSU)
	_, peer := instantiate(t, ten, 2, kernel.PSU)

	func() {
		defer func() { _ = recover() }()
		victim.RunBulk(kernel.RunSpec{Cycles: 10, Watch: &kernel.Watch{
			OutIdx: 0,
			Pred:   func(uint64) bool { panic("boom") },
		}})
	}()

	pokeInput(peer, 0, 3) // stepA
	pokeInput(peer, 1, 2) // stepB
	peer.RunCycles(5)
	regs := regsOf(peer)
	if regs[0] != 15 || regs[1] != 10 {
		t.Fatalf("peer instance regs = %v after the victim's panic, want [15 10]", regs)
	}
}
