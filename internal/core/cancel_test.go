package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestSweepCancelReturnsPromptly cancels a deliberately long sweep (5M
// measured cycles per point, far beyond any test budget) shortly after it
// starts and requires three things the experiment service depends on: the
// sweep returns promptly instead of finishing its schedule, the error
// unwraps to context.Canceled, and the parallel wave workers all exit (no
// goroutine leak).
func TestSweepCancelReturnsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	p := Baseline()
	rates := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	done := make(chan error, 1)
	go func() {
		_, err := OpenLoopSweepWith(p, rates, OpenLoopOpts{
			Warmup:  1000,
			Measure: 5_000_000,
			Ctx:     ctx,
		})
		done <- err
	}()

	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep error = %v, want context.Canceled in its chain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return within 30s")
	}

	// The sweep returned; its wave workers must wind down. Poll because
	// goroutine exit is asynchronous with the channel send.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d: sweep workers leaked", runtime.NumGoroutine(), before+2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpecRunContextCancel exercises the service-facing entry point: a
// cancelled RunContext fails with context.Canceled and a pre-cancelled
// context never starts simulating.
func TestSpecRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := &ExperimentSpec{
		Kind:    "openloop",
		Network: Baseline(),
		Rate:    0.1,
		Warmup:  1000,
		Measure: 5_000_000,
	}
	start := time.Now()
	_, err := spec.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled in its chain", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("pre-cancelled RunContext took %v", d)
	}
}

// TestShardedExecLeavesNoWorkers runs an exec spec on a sharded network and
// requires its gang's workers to exit when the run returns, with no GC to
// run the gang's finalizer: the run closes its network, as every run mode
// does.
func TestShardedExecLeavesNoWorkers(t *testing.T) {
	p := Table2Network(1)
	p.Shards = 2
	before := runtime.NumGoroutine()
	if _, err := Exec(p, ExecParams{Benchmark: "blackscholes", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// Close ends the workers, but each exits on its own schedule: poll.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, %d before the run: the network's workers leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
