// Package par provides the worker pool shared by experiment sweeps. It
// lives below the framework layer so that methodology packages (openloop,
// closedloop) can parallelize their own loops without importing
// internal/core, which imports them.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"noceval/internal/obs"
)

// Parallel runs n independent task closures across worker goroutines and
// returns the first error encountered. It never stops a task: an error
// does not cancel the remaining tasks, and results stay index-addressed. A
// caller that wants tasks to end early gives them a context and cancels
// it (the open-loop sweep cancels rates above one already proven
// unstable). Every
// simulator in this repository is deterministic given its seed and shares
// no mutable state across runs, so experiment sweeps parallelize
// perfectly.
//
// A task panic does not kill the worker pool: the remaining tasks still
// run, and once the pool drains the first panic is re-raised on the
// calling goroutine wrapped in a TaskPanic — so the failure carries the
// task index and surfaces where the sweep was started instead of crashing
// the process from an anonymous worker. A panic takes precedence over any
// task errors.
//
// workers <= 0 selects GOMAXPROCS.
func Parallel(n, workers int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Pool metrics publish into the process-wide registry when one is
	// installed; with none, every instrument is nil and the pool pays only
	// nil checks (no time.Now calls, no atomics beyond the queue itself).
	reg := obs.Default()
	cTasksDone := reg.Counter("par.tasks_done")
	cBusyNS := reg.Counter("par.busy_ns")
	if reg != nil {
		reg.Counter("par.waves").Inc()
		reg.Counter("par.tasks").Add(int64(n))
		reg.Gauge("par.workers").Set(float64(workers))
	}
	var queued atomic.Int64
	gQueue := reg.Gauge("par.queue_depth")
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		firstErr   error
		firstPanic *TaskPanic
	)
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if firstPanic == nil {
					firstPanic = &TaskPanic{Task: i, Value: v, Stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		if err := task(i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("par: parallel task %d: %w", i, err)
			}
			mu.Unlock()
		}
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				gQueue.Set(float64(queued.Add(-1)))
				if cBusyNS == nil {
					run(i)
					continue
				}
				start := time.Now()
				run(i)
				cBusyNS.Add(time.Since(start).Nanoseconds())
				cTasksDone.Inc()
			}
		}()
	}
	for i := 0; i < n; i++ {
		gQueue.Set(float64(queued.Add(1)))
		next <- i
	}
	close(next)
	wg.Wait()
	gQueue.Set(0)
	if firstPanic != nil {
		panic(firstPanic)
	}
	return firstErr
}

// TaskPanic wraps a panic raised by a task so Parallel can re-raise it on
// the calling goroutine with the task index and the original stack
// attached.
type TaskPanic struct {
	Task  int    // index of the task that panicked
	Value any    // the value passed to panic
	Stack []byte // stack of the panicking task, captured at recover time
}

// Error makes a TaskPanic readable when it escapes to a crash report.
func (p *TaskPanic) Error() string {
	return fmt.Sprintf("par: parallel task %d panicked: %v\n%s", p.Task, p.Value, p.Stack)
}
