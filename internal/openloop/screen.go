package openloop

// The sweep loop, and the one place an analytic prediction enters it.
//
// A sweep's parallel waves speculate beyond the saturation point: when the
// first unstable rate lands mid-wave, every higher rate in that wave has
// already been launched, and each of those runs burns a full DrainLimit of
// deeply saturated cycles before being discarded — by far the most
// expensive points of the sweep. A screened sweep is the same loop with a
// cut: an analytic prediction of the saturation point (internal/analytic's
// queueing model, wired up by internal/core) above which a rate is not
// launched speculatively. An unscreened sweep is the cut at +Inf.
//
// Soundness: every result a sweep *reports* — the stable prefix and the
// first unstable point — is always a genuine simulation; the cut only
// decides whether a rate is worth launching speculatively. A deferred rate
// that the sweep actually reaches (every lower rate was stable) is
// simulated on demand, exactly as a serial loop would have ("refined"),
// so a mispredicted cut costs time, never correctness: the returned slice
// is the same for every cut.

import (
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
// including the first unstable point, and every result is identical to
// what a serial loop would have produced (each run is deterministic given
// its seed). Rates above scr.Cut are excluded from the waves and simulated
// only when the sweep genuinely reaches them; a nil scr (or non-positive
// Cut) excludes none, which is SweepWith.
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
		results := make([]*Result, hi-lo)
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
		waveErr := par.Parallel(len(launched), 0, func(k int) error {
			i := launched[k]
			c := cfg
			c.Rate = rates[i]
			res, err := run(c)
			results[i-lo] = res
			return err
		})
		st.Simulated += len(launched)
		// Walk the wave in rate order: append up to the first failed or
		// unstable point. A failure (or instability) at rate i makes any
		// result at a higher rate unreported, exactly as the serial loop
		// never would have run it. A deferred rate reached here means every
		// lower rate was stable — the serial loop would have simulated it,
		// so refine it on demand.
		for i := lo; i < hi; i++ {
			res := results[i-lo]
			if res == nil && deferred(i) {
				c := cfg
				c.Rate = rates[i]
				r, err := run(c)
				st.Simulated++
				st.Refined++
				st.Screened--
				if err != nil {
					return out, err
				}
				res = r
			}
			if res == nil {
				// A launched run in this wave failed: report the prefix
				// before it.
				return out, waveErr
			}
			out = append(out, res)
			if !res.Stable {
				return out, nil
			}
		}
		if waveErr != nil {
			return out, waveErr
		}
	}
	return out, nil
}
