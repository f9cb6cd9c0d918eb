package repcut

import (
	"runtime"
	"testing"
	"time"

	"rteaal/internal/kernel"
)

// TestInstanceFinalizerStopsWorkers: a partitioned instance dropped without
// Close has its partition workers stopped by the garbage collector. The
// per-partition bodies capture the instance, but a parked worker holds no
// body — only the group's shared state — so nothing keeps the instance
// alive once the caller lets go. (Built without the instantiate helper,
// whose t.Cleanup(inst.Close) would keep the instance reachable.)
func TestInstanceFinalizerStopsWorkers(t *testing.T) {
	plan, err := NewPlan(build(t, bulkCounterGraph()), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := plan.Lower(kernel.Config{Kind: kernel.PSU})
	if err != nil {
		t.Fatal(err)
	}
	base := quiescedGoroutines()
	func() {
		in, err := plan.Instantiate(progs)
		if err != nil {
			t.Fatal(err)
		}
		in.PokeInput(0, 3)
		in.PokeInput(1, 2)
		in.RunCycles(4)
		in.Step()
		in.Settle()
		if regs := in.RegSnapshot(); regs[0] != 15 || regs[1] != 10 {
			t.Fatalf("regs = %v, want [15 10]", regs)
		}
		if runtime.NumGoroutine() < base+2 {
			t.Fatalf("expected 2 resident workers, goroutines %d → %d", base, runtime.NumGoroutine())
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("workers of a dropped instance still running: %d goroutines, want <= %d", runtime.NumGoroutine(), base)
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
