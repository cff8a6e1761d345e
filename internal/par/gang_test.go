package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestGangRunsEveryMember checks that each Run executes the function
// exactly once per member, across many waves.
func TestGangRunsEveryMember(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		g := NewGang(n)
		counts := make([]int64, n)
		const waves = 200
		for i := 0; i < waves; i++ {
			g.Run(func(m int) { atomic.AddInt64(&counts[m], 1) })
		}
		for m, c := range counts {
			if c != waves {
				t.Errorf("n=%d: member %d ran %d times, want %d", n, m, c, waves)
			}
		}
		if w, _ := g.Stats(); w != waves {
			t.Errorf("n=%d: Stats waves = %d, want %d", n, w, waves)
		}
		g.Close()
	}
}

// TestGangBarrierPhases drives a two-phase wave shape: every member must
// observe all phase-1 writes before running phase 2, with a serial middle
// section on member 0 — exactly the sharded deliver/apply/compute cycle.
func TestGangBarrierPhases(t *testing.T) {
	const n = 4
	g := NewGang(n)
	defer g.Close()
	phase1 := make([]int, n)
	var serial int
	for wave := 1; wave <= 300; wave++ {
		g.Run(func(m int) {
			phase1[m] = wave
			g.Barrier()
			if m == 0 {
				for i, v := range phase1 {
					if v != wave {
						t.Errorf("wave %d: member 0 saw phase1[%d]=%d", wave, i, v)
					}
				}
				serial = wave * 10
			}
			g.Barrier()
			if serial != wave*10 {
				t.Errorf("wave %d: member %d saw serial=%d before phase 2", wave, m, serial)
			}
		})
		if t.Failed() {
			break
		}
	}
}

// TestGangPanicPropagates: a panic on any member must surface on the
// calling goroutine as a TaskPanic carrying the member index, releasing
// members parked at a barrier instead of deadlocking; the gang is then
// broken and refuses further waves.
func TestGangPanicPropagates(t *testing.T) {
	for _, guilty := range []int{0, 2} {
		g := NewGang(3)
		func() {
			defer func() {
				tp, ok := recover().(*TaskPanic)
				if !ok || tp == nil {
					t.Fatalf("guilty=%d: expected *TaskPanic, got %v", guilty, tp)
				}
				if tp.Task != guilty || tp.Value != "boom" {
					t.Errorf("guilty=%d: TaskPanic = task %d value %v", guilty, tp.Task, tp.Value)
				}
			}()
			g.Run(func(m int) {
				if m == guilty {
					panic("boom")
				}
				g.Barrier() // the guilty member never arrives
			})
			t.Fatalf("guilty=%d: Run returned without panicking", guilty)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("guilty=%d: Run on a broken gang did not panic", guilty)
				}
			}()
			g.Run(func(m int) {})
		}()
	}
}

func TestGangCloseIsIdempotent(t *testing.T) {
	g := NewGang(4)
	g.Run(func(m int) {})
	g.Close()
	g.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run on a closed gang did not panic")
			}
		}()
		g.Run(func(m int) {})
	}()
}

// TestGangImbalanceSampling forces an unbalanced wave shape and checks the
// sampled imbalance lands above 1 (the balanced floor) and at most n.
func TestGangImbalanceSampling(t *testing.T) {
	const n = 2
	g := NewGang(n)
	defer g.Close()
	for i := 0; i < gangSampleEvery*3; i++ {
		g.Run(func(m int) {
			if m == 0 {
				s := 0
				for k := 0; k < 200_000; k++ {
					s += k
				}
				_ = s
			}
		})
	}
	if _, imb := g.Stats(); imb <= 1 || imb > n {
		t.Errorf("imbalance = %v, want in (1, %d]", imb, n)
	}
}

// TestAbandonedGangIsReclaimed drops a gang whose last wave's function
// references the gang: the gang must still become garbage, so that its
// finalizer closes it and its resident workers exit.
func TestAbandonedGangIsReclaimed(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		g := NewGang(3)
		g.Run(func(int) { g.Barrier() })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the gang: its workers never exited", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
