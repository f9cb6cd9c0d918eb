package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDisarmedFireIsInert: with nothing armed, Fire returns nil and
// records nothing.
func TestDisarmedFireIsInert(t *testing.T) {
	t.Cleanup(Reset)
	if err := Fire(RunPanic); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if h := Hits(RunPanic); h != 0 {
		t.Fatalf("disarmed point recorded %d hits", h)
	}
}

// TestArmFireDisarm: an armed hook sees 1-based hit numbers, Hits tracks
// them, and disarm makes the point inert again.
func TestArmFireDisarm(t *testing.T) {
	t.Cleanup(Reset)
	injected := errors.New("injected")
	var got []uint64
	disarm := Arm(PoolExhausted, func(hit uint64) error {
		got = append(got, hit)
		if hit == 2 {
			return injected
		}
		return nil
	})
	if err := Fire(PoolExhausted); err != nil {
		t.Fatalf("hit 1 returned %v, want nil", err)
	}
	if err := Fire(PoolExhausted); !errors.Is(err, injected) {
		t.Fatalf("hit 2 returned %v, want the injected error", err)
	}
	if Hits(PoolExhausted) != 2 {
		t.Fatalf("Hits = %d, want 2", Hits(PoolExhausted))
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("hook saw hits %v, want [1 2]", got)
	}
	disarm()
	if err := Fire(PoolExhausted); err != nil {
		t.Fatalf("fire after disarm returned %v", err)
	}
	disarm() // idempotent
}

// TestRearmResetsCounter: re-arming a point replaces the hook and starts
// the hit counter over, and the stale disarm from the first arm must not
// remove the new hook.
func TestRearmResetsCounter(t *testing.T) {
	t.Cleanup(Reset)
	stale := Arm(SlowRun, Always(func() error { return nil }))
	Fire(SlowRun)
	Fire(SlowRun)
	Arm(SlowRun, Always(func() error { return nil }))
	if Hits(SlowRun) != 0 {
		t.Fatalf("re-armed point kept %d hits", Hits(SlowRun))
	}
	stale() // disarm from the replaced arm: must be a no-op
	Fire(SlowRun)
	if Hits(SlowRun) != 1 {
		t.Fatalf("stale disarm removed the new hook (hits=%d)", Hits(SlowRun))
	}
}

// TestHelpers: FirstN selects the documented hits.
func TestHelpers(t *testing.T) {
	t.Cleanup(Reset)
	injected := errors.New("injected")
	Arm(PoolExhausted, FirstN(2, Error(injected)))
	for i, want := range []bool{true, true, false, false} {
		if got := Fire(PoolExhausted) != nil; got != want {
			t.Errorf("FirstN(2) hit %d: injected=%v, want %v", i+1, got, want)
		}
	}
}

// TestPanicAction: Panicf actions propagate as panics out of Fire.
func TestPanicAction(t *testing.T) {
	t.Cleanup(Reset)
	Arm(RunPanic, Always(Panicf("boom %d", 7)))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Fire did not propagate the hook's panic")
		}
	}()
	Fire(RunPanic)
}

// TestSleepAction: Sleep blocks for the duration and injects no fault.
func TestSleepAction(t *testing.T) {
	t.Cleanup(Reset)
	Arm(SlowRun, Always(Sleep(20*time.Millisecond)))
	start := time.Now()
	if err := Fire(SlowRun); err != nil {
		t.Fatalf("Sleep action injected %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Sleep action returned after %s, want >= 20ms", d)
	}
}

// TestConcurrentFire: concurrent Fire against arm/disarm churn is safe
// (run under -race in CI's chaos-smoke job) and loses no hits while armed.
func TestConcurrentFire(t *testing.T) {
	t.Cleanup(Reset)
	Arm(RunPanic, Always(func() error { return nil }))
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Fire(RunPanic)
			}
		}()
	}
	wg.Wait()
	if Hits(RunPanic) != workers*per {
		t.Fatalf("lost hits: %d, want %d", Hits(RunPanic), workers*per)
	}
}
