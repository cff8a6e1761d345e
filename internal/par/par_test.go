package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParallelRunsEveryTaskDespiteErrors(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Parallel(50, 4, func(i int) error {
		ran.Add(1)
		if i%10 == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d tasks, want all 50 (failures must not cancel siblings)", ran.Load())
	}
}

// TestParallelStopSemantics pins the pool's completion contract across
// failure shapes: errors never cancel sibling tasks (results are
// index-addressed, so a sweep must fill every slot it can), the first
// error by completion order wins, and the error wraps the task index.
func TestParallelStopSemantics(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		n       int
		workers int
		failAt  func(i int) error
		wantRan int64
		wantErr error
	}{
		{"no failures", 20, 4, func(int) error { return nil }, 20, nil},
		{"single failure mid-sweep", 20, 4, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		}, 20, boom},
		{"every task fails", 10, 3, func(int) error { return boom }, 10, boom},
		{"failure on first task", 15, 1, func(i int) error {
			if i == 0 {
				return boom
			}
			return nil
		}, 15, boom},
		{"failure on last task", 15, 1, func(i int) error {
			if i == 14 {
				return boom
			}
			return nil
		}, 15, boom},
		{"more workers than tasks", 3, 64, func(int) error { return boom }, 3, boom},
		{"default worker count", 20, 0, func(int) error { return nil }, 20, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ran atomic.Int64
			err := Parallel(tc.n, tc.workers, func(i int) error {
				ran.Add(1)
				return tc.failAt(i)
			})
			if ran.Load() != tc.wantRan {
				t.Errorf("ran %d tasks, want %d (errors must not stop the sweep)", ran.Load(), tc.wantRan)
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Errorf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error not propagated: %v", err)
			}
			if !strings.Contains(err.Error(), "par: parallel task ") {
				t.Errorf("error %q does not name the failing task", err)
			}
		})
	}
}

// TestParallelSerialFirstErrorWins: with one worker, completion order is
// task order, so the reported error must come from the lowest failing
// index.
func TestParallelSerialFirstErrorWins(t *testing.T) {
	err := Parallel(10, 1, func(i int) error {
		if i >= 4 {
			return fmt.Errorf("task-%d failed", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "par: parallel task 4: task-4 failed") {
		t.Fatalf("want first error (task 4), got %v", err)
	}
}

// TestParallelPanicPropagation pins the recovery contract: a panicking
// task must not abort its siblings, and the panic re-raises on the caller
// as a *TaskPanic carrying the task index, the original value, and the
// task's stack.
func TestParallelPanicPropagation(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		workers int
		task    func(i int) error
		checkTP func(t *testing.T, tp *TaskPanic)
	}{
		{"single panic", 20, 4, func(i int) error {
			if i == 5 {
				panic("kaboom")
			}
			return nil
		}, func(t *testing.T, tp *TaskPanic) {
			if tp.Task != 5 || tp.Value != "kaboom" {
				t.Errorf("wrong panic captured: task=%d value=%v", tp.Task, tp.Value)
			}
		}},
		{"serial first panic wins", 10, 1, func(i int) error {
			if i >= 3 {
				panic(i)
			}
			return nil
		}, func(t *testing.T, tp *TaskPanic) {
			if tp.Task != 3 || tp.Value != 3 {
				t.Errorf("want first panic (task 3), got task=%d value=%v", tp.Task, tp.Value)
			}
		}},
		{"panic beats error", 10, 1, func(i int) error {
			if i == 2 {
				return errors.New("plain error")
			}
			if i == 6 {
				panic("panics take precedence")
			}
			return nil
		}, func(t *testing.T, tp *TaskPanic) {
			if tp.Value != "panics take precedence" {
				t.Errorf("panic value lost: %v", tp.Value)
			}
		}},
		{"nil-adjacent panic value", 5, 2, func(i int) error {
			if i == 1 {
				panic(errors.New("typed panic"))
			}
			return nil
		}, func(t *testing.T, tp *TaskPanic) {
			if err, ok := tp.Value.(error); !ok || err.Error() != "typed panic" {
				t.Errorf("panic value mangled: %v", tp.Value)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ran atomic.Int64
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("panic was swallowed")
				}
				tp, ok := v.(*TaskPanic)
				if !ok {
					t.Fatalf("re-raised value is %T, want *TaskPanic", v)
				}
				if ran.Load() != int64(tc.n) {
					t.Errorf("ran %d tasks, want %d (a panic must not cancel siblings)", ran.Load(), tc.n)
				}
				if len(tp.Stack) == 0 {
					t.Error("panic stack not captured")
				}
				if !strings.Contains(tp.Error(), "panicked") {
					t.Errorf("unreadable TaskPanic: %q", tp.Error())
				}
				tc.checkTP(t, tp)
			}()
			Parallel(tc.n, tc.workers, func(i int) error {
				ran.Add(1)
				return tc.task(i)
			})
		})
	}
}

func TestParallelEdgeCases(t *testing.T) {
	if err := Parallel(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero tasks returned %v", err)
	}
	done := make([]atomic.Bool, 7)
	if err := Parallel(7, 100, func(i int) error { done[i].Store(true); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if !done[i].Load() {
			t.Fatalf("task %d skipped", i)
		}
	}
}
