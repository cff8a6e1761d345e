package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	err := quick.Check(func(n int) bool {
		n = n%1000 + 1
		if n < 1 {
			n = -n + 1
		}
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(7)
	const n, iters = 10, 100000
	counts := make([]int, n)
	for i := 0; i < iters; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / iters
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.3f, want ~0.1", i, frac)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBernoulliEdgesAndRate(t *testing.T) {
	r := NewRNG(2)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / 100000; f < 0.28 || f > 0.32 {
		t.Errorf("Bernoulli(0.3) rate = %.3f", f)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(3)
	const p = 0.25
	sum := 0.0
	for i := 0; i < 100000; i++ {
		g := r.Geometric(p)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += float64(g)
	}
	if mean := sum / 100000; math.Abs(mean-1/p) > 0.15 {
		t.Errorf("Geometric(%.2f) mean = %.3f, want %.1f", p, mean, 1/p)
	}
	if r.Geometric(1) != 1 {
		t.Error("Geometric(1) != 1")
	}
}

func TestSplitIndependence(t *testing.T) {
	a := NewRNG(9)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collided %d/1000 times", same)
	}
}

func TestFIFOOrdering(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
}

func TestFIFOInterleavedPushPop(t *testing.T) {
	var q FIFO[int]
	next, expect := 0, 0
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if r.Bernoulli(0.6) {
			q.Push(next)
			next++
		} else if v, ok := q.Pop(); ok {
			if v != expect {
				t.Fatalf("expected %d got %d", expect, v)
			}
			expect++
		}
	}
}

func TestFIFOAtClear(t *testing.T) {
	var q FIFO[string]
	q.Push("a")
	q.Push("b")
	if q.At(0) != "a" {
		t.Errorf("At(0) = %q", q.At(0))
	}
	if q.At(1) != "b" {
		t.Errorf("At(1) = %q", q.At(1))
	}
	q.Clear()
	if q.Len() != 0 {
		t.Error("clear did not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	q.At(0)
}

func TestDelayLineTiming(t *testing.T) {
	d := NewDelayLine[int](3)
	d.Push(10, 1)
	for now := int64(10); now < 13; now++ {
		if _, ok := d.PopReady(now); ok {
			t.Fatalf("item ready early at %d", now)
		}
	}
	v, ok := d.PopReady(13)
	if !ok || v != 1 {
		t.Fatalf("item not ready at 13: %v %v", v, ok)
	}
}

func TestDelayLineFIFOOrder(t *testing.T) {
	d := NewDelayLine[int](2)
	d.Push(0, 1)
	d.Push(1, 2)
	if v, ok := d.PopReady(5); !ok || v != 1 {
		t.Fatalf("first pop = %v ok=%v", v, ok)
	}
	if v, ok := d.PopReady(5); !ok || v != 2 {
		t.Fatalf("second pop = %v ok=%v", v, ok)
	}
}

// TestDelayLineWrapGrowPurge: a line that grows while its ring has wrapped
// keeps order and due cycles, and Purge drops only what it is asked to.
func TestDelayLineWrapGrowPurge(t *testing.T) {
	d := NewDelayLine[int](2)
	d.Grow(3)
	for now := int64(0); now < 3; now++ {
		d.Push(now, int(now))
	}
	if v, ok := d.PopReady(2); !ok || v != 0 {
		t.Fatalf("pop at 2 = %v ok=%v, want 0", v, ok)
	}
	for now := int64(3); now < 8; now++ { // wraps, then grows
		d.Push(now, int(now))
	}
	d.Purge(func(v int) bool { return v%2 == 0 })
	if d.Len() != 4 {
		t.Fatalf("Len after purge = %d, want 4", d.Len())
	}
	for _, want := range []int{1, 3, 5, 7} {
		due := int64(want) + 2
		if _, ok := d.PopReady(due - 1); ok {
			t.Fatalf("%d ready before its due cycle %d", want, due)
		}
		if v, ok := d.PopReady(due); !ok || v != want {
			t.Fatalf("pop at %d = %v ok=%v, want %d", due, v, ok, want)
		}
	}
}

func TestTicker(t *testing.T) {
	tk := NewTicker(10, 10)
	fires := 0
	for now := int64(0); now <= 100; now++ {
		if tk.Fire(now) {
			fires++
		}
	}
	if fires != 10 {
		t.Errorf("fired %d times in 100 cycles at period 10, want 10", fires)
	}
	if NewTicker(0, 0).Fire(5) {
		t.Error("zero-period ticker fired")
	}
	// Missed periods coalesce into one fire and resynchronize.
	tk = NewTicker(10, 10)
	if !tk.Fire(55) {
		t.Error("missed-period fire lost")
	}
	if tk.Fire(59) {
		t.Error("fired again before next period")
	}
	if !tk.Fire(60) {
		t.Error("did not fire at resynchronized period")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("clock not zero")
	}
	if c.Tick() != 1 || c.Now() != 1 {
		t.Error("tick broken")
	}
}

// bernoulliLoop is what NextBernoulli replaces: Bernoulli(p) for trials i,
// i+1, … < n, stopping at the first success.
func bernoulliLoop(r *RNG, p float64, i, n int) int {
	for ; i < n; i++ {
		if r.Bernoulli(p) {
			break
		}
	}
	return i
}

// checkNextBernoulli holds NextBernoulli to the Bernoulli loop on twin
// generators: the same success indices over n trials, scanned the way the
// open-loop driver scans its nodes, and a bit-equal state afterwards.
func checkNextBernoulli(t *testing.T, seed uint64, p float64, n int) {
	t.Helper()
	a, b := NewRNG(seed), NewRNG(seed)
	var got, want []int
	for i := a.NextBernoulli(p, 0, n); i < n; i = a.NextBernoulli(p, i+1, n) {
		got = append(got, i)
		a.Uint64() // a draw between successes, as emit makes
	}
	for i := bernoulliLoop(b, p, 0, n); i < n; i = bernoulliLoop(b, p, i+1, n) {
		want = append(want, i)
		b.Uint64()
	}
	if !slices.Equal(got, want) {
		t.Fatalf("p=%v n=%d: successes %v, Bernoulli loop %v", p, n, got, want)
	}
	if a.s != b.s {
		t.Fatalf("p=%v n=%d: state %x after the loop, Bernoulli loop %x", p, n, a.s, b.s)
	}
}

func TestNextBernoulliMatchesBernoulli(t *testing.T) {
	ps := []float64{-1, 0, 0x1p-60, 0x1p-53, 0.02, 0.4, 1 - 0x1p-53, 1, 2, math.NaN()}
	for _, p := range ps {
		for _, n := range []int{0, 1, 64, 4096} {
			for seed := uint64(1); seed <= 20; seed++ {
				checkNextBernoulli(t, seed, p, n)
			}
		}
	}
	// Thresholds next to a draw: p just above and at k/2^53 for the draw k
	// a fresh generator makes first.
	k := NewRNG(5).Uint64() >> 11
	for _, p := range []float64{float64(k) / (1 << 53), math.Nextafter(float64(k)/(1<<53), 1)} {
		checkNextBernoulli(t, 5, p, 1)
	}
	// A start at or past n makes no draw.
	r := NewRNG(9)
	s := r.s
	if i := r.NextBernoulli(0.5, 7, 7); i != 7 || r.s != s {
		t.Errorf("NextBernoulli(0.5, 7, 7) = %d and drew", i)
	}
}

// FuzzNextBernoulli is TestNextBernoulliMatchesBernoulli over
// fuzzer-chosen seeds, probabilities (any float64 bit pattern) and trial
// counts.
func FuzzNextBernoulli(f *testing.F) {
	f.Add(uint64(1), 0.02, uint16(64))
	f.Add(uint64(2), 0x1p-53, uint16(1000))
	f.Add(uint64(3), 1-0x1p-53, uint16(3))
	f.Fuzz(func(t *testing.T, seed uint64, p float64, n uint16) {
		checkNextBernoulli(t, seed, p, int(n))
	})
}
