package kernel

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test if it does not settle — the worker-panic tests
// use it to prove a poisoned batch leaks no resident workers.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("worker goroutines leaked: %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchWorkerPanicRecovery: a panic inside a parallel batch worker (a
// watch predicate here, standing in for any torn evaluation) must not
// strand the dispatcher at the cycle barrier or leak workers. The
// protocol: the panicking worker releases its barrier cohort, records the
// fault, and the dispatcher re-raises it as a *WorkerPanic after closing
// the batch.
func TestBatchWorkerPanicRecovery(t *testing.T) {
	base := runtime.NumGoroutine()
	ten := bulkCounterTensor(t)
	prog, err := NewProgram(ten, Config{Kind: PSU})
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 4
	b, err := prog.InstantiateBatchWith(lanes, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		pokeLane(b, lane, 0, 1)
	}

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		b.RunBulk(RunSpec{Cycles: 50, Watch: &Watch{
			OutIdx: 0,
			Pred:   func(v uint64) bool { panic("injected predicate crash") },
		}})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("dispatcher re-raised %v (%T), want *WorkerPanic", recovered, recovered)
	}
	if wp.Val != "injected predicate crash" || len(wp.Stack) == 0 {
		t.Fatalf("WorkerPanic = {Val: %v, %d stack bytes}, want the hook's value and a stack", wp.Val, len(wp.Stack))
	}

	// The batch closed itself before re-raising: stepping it panics
	// instead of deadlocking against dead workers.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run on the poisoned batch did not panic")
			}
		}()
		b.Run(1)
	}()
	waitGoroutines(t, base) // all three workers exited
}

// TestBatchWorkerPanicPeersSurvive: only the batch whose worker panicked
// is poisoned — an independent batch of the same program keeps stepping
// correctly afterwards.
func TestBatchWorkerPanicPeersSurvive(t *testing.T) {
	ten := bulkCounterTensor(t)
	prog, err := NewProgram(ten, Config{Kind: PSU})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := prog.InstantiateBatchWith(2, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := prog.InstantiateBatchWith(2, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	func() {
		defer func() { _ = recover() }()
		victim.RunBulk(RunSpec{Cycles: 10, Watch: &Watch{
			OutIdx: 0,
			Pred:   func(uint64) bool { panic("boom") },
		}})
	}()

	pokeLane(peer, 0, 0, 2)
	peer.Run(5)
	// Outputs sample at settle, before that cycle's commit: after 5
	// completed cycles the count output reads 4*step.
	if got := peer.PeekOutput(0, 0); got != 8 {
		t.Fatalf("peer batch count = %d after the victim's panic, want 8", got)
	}
}
