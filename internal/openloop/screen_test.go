package openloop

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeRunner records every simulated rate and fakes instability at or
// above the given threshold.
type fakeRunner struct {
	mu       sync.Mutex
	rates    []float64
	unstable float64
	failAt   float64 // rate that returns an error (0 = never)
	err      error
}

func (f *fakeRunner) run(c Config) (*Result, error) {
	f.mu.Lock()
	f.rates = append(f.rates, c.Rate)
	f.mu.Unlock()
	if f.failAt > 0 && c.Rate == f.failAt {
		return nil, f.err
	}
	return &Result{Rate: c.Rate, Stable: c.Rate < f.unstable, AvgLatency: 10 + 100*c.Rate}, nil
}

func (f *fakeRunner) simulated() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]float64(nil), f.rates...)
	sort.Float64s(out)
	return out
}

// sameResults compares two sweeps point by point (the screening contract:
// bit-identical output).
func sameResults(t *testing.T, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("screened sweep returned %d results, unscreened %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Rate != want[i].Rate || got[i].Stable != want[i].Stable ||
			got[i].AvgLatency != want[i].AvgLatency {
			t.Errorf("point %d differs: screened %+v, unscreened %+v", i, *got[i], *want[i])
		}
	}
}

func TestScreenedSweepMatchesUnscreened(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	plain := &fakeRunner{unstable: 0.25}
	want, err := SweepWith(Config{}, rates, plain.run)
	if err != nil {
		t.Fatal(err)
	}

	screened := &fakeRunner{unstable: 0.25}
	st := &ScreenStats{}
	got, err := SweepScreenedWith(Config{}, rates, screened.run, &Screen{Cut: 0.25, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)

	// The first unstable rate (0.3) is above the cut, so it must have been
	// refined — simulated on demand to preserve the serial contract.
	if st.Refined < 1 {
		t.Errorf("refined = %d, want >= 1 (first unstable rate is above the cut)", st.Refined)
	}
	// Deep-saturation rates past the first unstable point must never be
	// simulated, whatever the wave width.
	for _, r := range screened.simulated() {
		if r > 0.3 {
			t.Errorf("screened sweep simulated deep-saturation rate %v", r)
		}
	}
	if st.Considered != len(rates) {
		t.Errorf("considered = %d, want %d", st.Considered, len(rates))
	}
	if st.Simulated != len(screened.simulated()) {
		t.Errorf("stats report %d simulations, runner saw %d", st.Simulated, len(screened.simulated()))
	}
}

func TestScreenedSweepRefinesMispredictedCut(t *testing.T) {
	// A cut far below the true saturation point defers rates the sweep
	// genuinely needs; every one of them must be refined and the output
	// must still match the unscreened sweep exactly.
	rates := []float64{0.1, 0.2, 0.3, 0.4}
	plain := &fakeRunner{unstable: 0.35}
	want, err := SweepWith(Config{}, rates, plain.run)
	if err != nil {
		t.Fatal(err)
	}

	screened := &fakeRunner{unstable: 0.35}
	st := &ScreenStats{}
	got, err := SweepScreenedWith(Config{}, rates, screened.run, &Screen{Cut: 0.05, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
	if st.Refined != len(want) {
		t.Errorf("refined = %d, want %d (every reported rate was deferred)", st.Refined, len(want))
	}
	if st.Screened < 0 {
		t.Errorf("screened count went negative: %d", st.Screened)
	}
}

func TestScreenedSweepAllStable(t *testing.T) {
	// No instability anywhere: every rate is reported, so deferred rates
	// are all refined and nothing may be skipped.
	rates := []float64{0.1, 0.2, 0.3, 0.4}
	screened := &fakeRunner{unstable: 1}
	st := &ScreenStats{}
	got, err := SweepScreenedWith(Config{}, rates, screened.run, &Screen{Cut: 0.25, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rates) {
		t.Fatalf("got %d results, want %d", len(got), len(rates))
	}
	if st.Screened != 0 {
		t.Errorf("screened = %d, want 0 (every rate was reported)", st.Screened)
	}
	if st.Simulated != len(rates) {
		t.Errorf("simulated = %d, want %d", st.Simulated, len(rates))
	}
}

func TestScreenedSweepPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	// Error on a launched (below-cut) rate: the prefix before it is
	// reported, like SweepWith.
	f := &fakeRunner{unstable: 1, failAt: 0.2, err: boom}
	out, err := SweepScreenedWith(Config{}, []float64{0.1, 0.2, 0.3}, f.run, &Screen{Cut: 0.9})
	if !errors.Is(err, boom) {
		t.Errorf("launched-rate error not propagated: %v", err)
	}
	if len(out) != 1 {
		t.Errorf("got %d results before the failed rate, want 1", len(out))
	}

	// Error on a refined (deferred) rate propagates the same way.
	f = &fakeRunner{unstable: 1, failAt: 0.3, err: boom}
	out, err = SweepScreenedWith(Config{}, []float64{0.1, 0.2, 0.3}, f.run, &Screen{Cut: 0.25})
	if !errors.Is(err, boom) {
		t.Errorf("refined-rate error not propagated: %v", err)
	}
	if len(out) != 2 {
		t.Errorf("got %d results before the failed refinement, want 2", len(out))
	}
}

func TestScreenedSweepNilScreenDegrades(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.3}
	a := &fakeRunner{unstable: 0.25}
	want, _ := SweepWith(Config{}, rates, a.run)
	b := &fakeRunner{unstable: 0.25}
	got, err := SweepScreenedWith(Config{}, rates, b.run, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}

func TestScreenedSweepBitIdenticalRealSim(t *testing.T) {
	// End-to-end soundness on the real simulator: a screened sweep over a
	// bracket spanning saturation returns results bit-identical to the
	// unscreened sweep, with the deep-saturation tail skipped.
	cfg := Config{Net: meshConfig(1, 16), Seed: 11, Warmup: 500, Measure: 1000, DrainLimit: 8000}
	rates := []float64{0.1, 0.2, 0.7, 0.8, 0.9}
	want, err := SweepWith(cfg, rates, Run)
	if err != nil {
		t.Fatal(err)
	}
	st := &ScreenStats{}
	got, err := SweepScreenedWith(cfg, rates, Run, &Screen{Cut: 0.45, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("screened sweep returned %d results, unscreened %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AvgLatency != want[i].AvgLatency ||
			got[i].MeasuredPackets != want[i].MeasuredPackets ||
			got[i].Stable != want[i].Stable ||
			got[i].Accepted != want[i].Accepted {
			t.Errorf("point %d (rate %.2f) differs: screened (%.6f, %d) vs unscreened (%.6f, %d)",
				i, rates[i], got[i].AvgLatency, got[i].MeasuredPackets, want[i].AvgLatency, want[i].MeasuredPackets)
		}
	}
	// The sweep stops at the first unstable rate (0.7, the first above the
	// mesh's ~0.4 saturation), so 0.8 and 0.9 must have been screened out.
	if want[len(want)-1].Stable {
		t.Fatal("expected the sweep to end on an unstable point")
	}
	if st.Screened < 1 {
		t.Errorf("screened = %d, want >= 1 (deep-saturation rates avoided)", st.Screened)
	}
}

// stepRunner drives the saturation bisection with a synthetic stability
// threshold: stable strictly below sat. The zero-load probe (rate 0.005)
// reports latency 10, giving a 3x cap of 30 that the probe latencies stay
// below so stability alone decides the bisection.
type stepRunner struct {
	sat   float64
	calls int
}

func (s *stepRunner) run(c Config) (*Result, error) {
	s.calls++
	return &Result{Rate: c.Rate, Stable: c.Rate < s.sat, AvgLatency: 10}, nil
}

func TestSaturationWithAllStable(t *testing.T) {
	r := &stepRunner{sat: 2}
	got, err := SaturationWith(Config{}, 0.1, 0.6, 3, r.run)
	if err != nil {
		t.Fatal(err)
	}
	// Every probe is stable: the bisection converges onto the upper edge.
	if got < 0.59 || got > 0.6 {
		t.Errorf("all-stable bisection = %v, want ~hi (0.6)", got)
	}
}

func TestSaturationWithAllUnstable(t *testing.T) {
	r := &stepRunner{sat: 0.01}
	got, err := SaturationWith(Config{}, 0.1, 0.6, 3, r.run)
	if err != nil {
		t.Fatal(err)
	}
	// No probe is stable: lo is never advanced.
	if got != 0.1 {
		t.Errorf("all-unstable bisection = %v, want lo (0.1)", got)
	}
}

func TestSaturationWithSingleRate(t *testing.T) {
	r := &stepRunner{sat: 2}
	got, err := SaturationWith(Config{}, 0.3, 0.3, 3, r.run)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.3 {
		t.Errorf("degenerate bracket = %v, want 0.3", got)
	}
	// Only the zero-load probe ran; the empty bracket needs no bisection.
	if r.calls != 1 {
		t.Errorf("degenerate bracket made %d runs, want 1 (zero-load only)", r.calls)
	}
}

func TestSaturationWithConverges(t *testing.T) {
	r := &stepRunner{sat: 0.37}
	got, err := SaturationWith(Config{}, 0.05, 0.7, 3, r.run)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.37-0.01 || got >= 0.37 {
		t.Errorf("bisection = %v, want just below 0.37", got)
	}
}

// referenceBisect is the bisection written out on its own: what the search
// must return, and how many probes (beyond the zero-load one) it may spend.
func referenceBisect(sat, lo, hi float64) (float64, int) {
	probes := 0
	for i := 0; i < 12 && hi-lo > 0.005; i++ {
		mid := (lo + hi) / 2
		probes++
		if mid < sat {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

func TestSaturationWithMatchesReferenceBisect(t *testing.T) {
	for _, tc := range []struct{ sat, lo, hi float64 }{
		{0.37, 0.05, 0.7}, // the full 12-probe budget
		{0.42, 0.1, 0.6},  // A6's bracket
		{0.2, 0.19, 0.21}, // a bracket a few probes wide
	} {
		want, probes := referenceBisect(tc.sat, tc.lo, tc.hi)
		r := &stepRunner{sat: tc.sat}
		got, err := SaturationWith(Config{}, tc.lo, tc.hi, 3, r.run)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || r.calls != probes+1 {
			t.Errorf("sat=%v in [%v, %v]: got %v in %d runs, reference bisection %v in %d",
				tc.sat, tc.lo, tc.hi, got, r.calls, want, probes+1)
		}
	}
}

// waves splits the runner's launch log into the sweep's waves. Waves run one after
// another and, with nothing deferred, every wave but the last is full, so
// consecutive chunks of the wave width are the waves; order inside one is
// scheduling noise and sorted away.
func (f *fakeRunner) waves(width int) [][]float64 {
	var out [][]float64
	for lo := 0; lo < len(f.rates); lo += width {
		w := append([]float64(nil), f.rates[lo:min(lo+width, len(f.rates))]...)
		sort.Float64s(w)
		out = append(out, w)
	}
	return out
}

// TestSweepWithIsTheZeroCutSweep: SweepWith and a screened sweep with no
// usable cut are one loop — the same rates launched in the same waves, the
// same reported prefix, nothing refined.
func TestSweepWithIsTheZeroCutSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	rates := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
	// Unstable from 0.35: the third wave {0.35, 0.4, 0.45} is launched
	// whole and the fourth never entered.
	plain := &fakeRunner{unstable: 0.35}
	want, err := SweepWith(Config{}, rates, plain.run)
	if err != nil {
		t.Fatal(err)
	}
	wantWaves := [][]float64{{0.05, 0.1, 0.15}, {0.2, 0.25, 0.3}, {0.35, 0.4, 0.45}}
	if !reflect.DeepEqual(plain.waves(3), wantWaves) {
		t.Fatalf("SweepWith launched %v, want %v", plain.waves(3), wantWaves)
	}
	for _, scr := range []*Screen{nil, {}, {Cut: -1, Stats: &ScreenStats{}}, {Cut: 1, Stats: &ScreenStats{}}} {
		cutless := &fakeRunner{unstable: 0.35}
		got, err := SweepScreenedWith(Config{}, rates, cutless.run, scr)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)
		if !reflect.DeepEqual(cutless.waves(3), wantWaves) {
			t.Errorf("screen %+v launched %v, SweepWith %v", scr, cutless.waves(3), wantWaves)
		}
		if scr != nil && scr.Stats != nil {
			if want := (ScreenStats{Considered: len(rates), Simulated: 9}); *scr.Stats != want {
				t.Errorf("screen cut %v stats %+v, want %+v", scr.Cut, *scr.Stats, want)
			}
		}
	}
}

// cancelRunner fakes a sweep whose first unstable rate is unstable, with an
// optional failure at failAt below it. The unstable rate proves itself
// through the wave's hook, then returns its result, or ownErr when set.
// Every rate above it waits for its context and records the cause it was
// cancelled with; one that waits in vain fails the test.
type cancelRunner struct {
	unstable, failAt float64 // failAt 0 = no failure
	failErr, ownErr  error

	mu     sync.Mutex
	causes map[float64]error
}

func (f *cancelRunner) run(c Config) (*Result, error) {
	switch {
	case c.Rate == f.failAt:
		return nil, f.failErr
	case c.Rate < f.unstable:
		return &Result{Rate: c.Rate, Stable: true}, nil
	case c.Rate == f.unstable:
		if c.unstable != nil {
			c.unstable()
		}
		if f.ownErr != nil {
			return nil, f.ownErr
		}
		return &Result{Rate: c.Rate, Stable: false}, nil
	}
	select {
	case <-c.Ctx.Done():
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("rate %v above the unstable rate was never cancelled", c.Rate)
	}
	cause := context.Cause(c.Ctx)
	f.mu.Lock()
	f.causes[c.Rate] = cause
	f.mu.Unlock()
	return nil, fmt.Errorf("openloop: run canceled: %w", cause)
}

// serialSweep is the contract every sweep is held to: rates one at a time,
// stopping at the first error or unstable result.
func serialSweep(rates []float64, run func(Config) (*Result, error)) ([]*Result, error) {
	var out []*Result
	for _, r := range rates {
		res, err := run(Config{Rate: r})
		if err != nil {
			return out, err
		}
		out = append(out, res)
		if !res.Stable {
			return out, nil
		}
	}
	return out, nil
}

// TestSweepCancelsRatesAboveUnstable moves the first unstable rate through
// every position of two four-wide waves, alone, returning its own error,
// and under a failure at every lower position. The sweep must return the
// serial loop's slice and error, so the failed or unstable point's own
// error wins over the cancellation; and every launched rate above the
// unstable one must have been cancelled with errDiscarded.
func TestSweepCancelsRatesAboveUnstable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const width = 4
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	boom, own := errors.New("boom"), errors.New("own")
	for u := range rates {
		type variant struct {
			fail   int // index of the failing rate, -1 = none
			ownErr error
		}
		variants := []variant{{-1, nil}, {-1, own}}
		for f := 0; f < u; f++ {
			variants = append(variants, variant{f, nil})
		}
		for _, v := range variants {
			name := fmt.Sprintf("unstable %v fail %d own %v", rates[u], v.fail, v.ownErr)
			runner := func() *cancelRunner {
				r := &cancelRunner{unstable: rates[u], failErr: boom, ownErr: v.ownErr, causes: map[float64]error{}}
				if v.fail >= 0 {
					r.failAt = rates[v.fail]
				}
				return r
			}
			want, wantErr := serialSweep(rates, runner().run)
			r := runner()
			got, err := SweepWith(Config{}, rates, r.run)
			if err != wantErr {
				t.Errorf("%s: error %v, the serial loop's %v", name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d results, the serial loop's %d", name, len(got), len(want))
			}
			// u's wave is launched unless a failure in an earlier wave ended
			// the sweep first; then every rate above u in it is cancelled.
			var cancelled []float64
			if v.fail < 0 || v.fail/width == u/width {
				cancelled = rates[u+1 : min(u/width*width+width, len(rates))]
			}
			if len(r.causes) != len(cancelled) {
				t.Errorf("%s: %d rates saw a cancellation, want %v", name, len(r.causes), cancelled)
			}
			for _, rate := range cancelled {
				if cause := r.causes[rate]; !errors.Is(cause, errDiscarded) {
					t.Errorf("%s: rate %v ended with cause %v, want errDiscarded", name, rate, cause)
				}
			}
		}
	}
}
