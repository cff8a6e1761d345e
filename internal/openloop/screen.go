package openloop

// The sweep loop, and the two ways it avoids simulating what it throws
// away.
//
// A sweep's parallel waves speculate beyond the saturation point: when the
// first unstable rate lands mid-wave, every higher rate in that wave has
// already been launched. Those are the sweep's most expensive runs — their
// source queues grow for as long as they run — and the sweep never reports
// them.
//
// Cancellation. A run knows at the end of its measurement phase whether
// the flits its window accepted fell short of 90 % of the offered load,
// which makes its result unstable whatever the drain phase does, and says
// so through Config.unstable. The wave then cancels every launched rate
// above it with errDiscarded as the cause, and those runs stop at their
// next context poll instead of running out their DrainLimit. Soundness:
// the serial loop reports the rates up to and including the first failed
// or unstable one, so a rate above a rate proven unstable is never
// reported. The proven rate and every rate below it are never cancelled by
// the sweep; each runs to completion, and any of them may still be the
// first failed or unstable point, whose own result or error is what the
// sweep returns. A cancelled run returns an error, so nothing caches it.
//
// Screening. An analytic prediction of the saturation point
// (internal/analytic's queueing model, wired up by internal/core) is a cut
// above which a rate is not launched speculatively at all. An unscreened
// sweep is the cut at +Inf. Every result a sweep reports is a genuine
// simulation; the cut only decides whether a rate is worth launching
// speculatively. A deferred rate that the sweep actually reaches (every
// lower rate was stable) is simulated on demand, exactly as a serial loop
// would have ("refined"), so a mispredicted cut costs time, never
// correctness: the returned slice is the same for every cut.

import (
	"context"
	"errors"
	"math"
	"runtime"

	"noceval/internal/par"
)

// Screen is an analytic screening plan for one sweep.
type Screen struct {
	// Cut is the offered load (flits/cycle/node) above which the analytic
	// model predicts deep saturation. Rates above Cut are not launched in
	// parallel waves; they are simulated only if the sweep reaches them.
	// A zero or negative Cut disables screening.
	Cut float64
	// Stats, when non-nil, accumulates the screening outcome.
	Stats *ScreenStats
}

// ScreenStats counts how a screened sweep's rates were handled.
type ScreenStats struct {
	// Considered is the total number of rates the sweep was asked for.
	Considered int
	// Simulated counts rates actually run (launched or refined).
	Simulated int
	// Screened counts rates the sweep would have launched speculatively
	// without the cut but never simulated.
	Screened int
	// Refined counts deferred rates the sweep reached and had to simulate
	// after all — the analytic cut was below the true saturation point.
	Refined int
}

// SweepScreenedWith is the sweep loop. Rates are simulated in waves of
// GOMAXPROCS parallel runs, and the serial early-stop contract is preserved
// exactly: the returned slice is the ordered prefix of rates up to and
// including the first unstable point, a failed rate before it returns the
// prefix below it with that rate's own error, and every result is
// identical to what a serial loop would have produced (each run is
// deterministic given its seed). Rates above scr.Cut are excluded from the
// waves and simulated only when the sweep genuinely reaches them; a nil
// scr (or non-positive Cut) excludes none, which is SweepWith.
func SweepScreenedWith(cfg Config, rates []float64, run func(Config) (*Result, error), scr *Screen) ([]*Result, error) {
	cut := math.Inf(1)
	if scr != nil && scr.Cut > 0 {
		cut = scr.Cut
	}
	deferred := func(i int) bool { return rates[i] > cut }
	wave := max(runtime.GOMAXPROCS(0), 1)

	st := &ScreenStats{} // counted into the plan's Stats, or dropped
	if scr != nil && scr.Stats != nil {
		st = scr.Stats
	}
	st.Considered += len(rates)

	var out []*Result
	for lo := 0; lo < len(rates); lo += wave {
		hi := min(lo+wave, len(rates))
		launched := make([]int, 0, hi-lo)
		// Screened counts the deferred rates of every wave entered (those
		// an uncut sweep would have launched) until refinement simulates
		// one after all. Rates beyond the last wave entered are not
		// counted: no cut would have touched them.
		for i := lo; i < hi; i++ {
			if deferred(i) {
				st.Screened++
			} else {
				launched = append(launched, i)
			}
		}
		results, errs := runWave(cfg, rates, lo, hi, launched, run)
		st.Simulated += len(launched)
		// Walk the wave in rate order, as the serial loop would: append up
		// to the first failed or unstable point. A deferred rate reached
		// here means every lower rate was stable — the serial loop would
		// have simulated it, so refine it on demand.
		for i := lo; i < hi; i++ {
			res, err := results[i-lo], errs[i-lo]
			if deferred(i) {
				c := cfg
				c.Rate = rates[i]
				res, err = run(c)
				st.Simulated++
				st.Refined++
				st.Screened--
			}
			if err != nil {
				return out, err
			}
			out = append(out, res)
			if !res.Stable {
				return out, nil
			}
		}
	}
	return out, nil
}

// errDiscarded is the cause a wave cancels a rate with. figures -report
// tells the ledger records of such runs from errors by the words "sweep
// discarded".
var errDiscarded = errors.New("openloop: sweep discarded this rate: a lower rate of its wave is unstable")

// runWave simulates the launched rates of the wave [lo, hi) in parallel
// and returns their results and errors indexed from lo. Each run gets its
// own context under cfg.Ctx, and a run that proves itself unstable cancels
// every launched rate after it.
func runWave(cfg Config, rates []float64, lo, hi int, launched []int, run func(Config) (*Result, error)) ([]*Result, []error) {
	results, errs := make([]*Result, hi-lo), make([]error, hi-lo)
	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	cancels := make([]context.CancelCauseFunc, len(launched))
	cfgs := make([]Config, len(launched))
	for k, i := range launched {
		c := cfg
		c.Rate = rates[i]
		c.Ctx, cancels[k] = context.WithCancelCause(parent)
		c.unstable = func() {
			for _, cancel := range cancels[k+1:] {
				cancel(errDiscarded)
			}
		}
		cfgs[k] = c
	}
	defer func() {
		for _, cancel := range cancels {
			cancel(nil)
		}
	}()
	// Each task keeps its own error in errs, so Parallel has none to return.
	_ = par.Parallel(len(launched), 0, func(k int) error {
		i := launched[k]
		results[i-lo], errs[i-lo] = run(cfgs[k])
		return nil
	})
	return results, errs
}
