package stats

import (
	"math"
	"slices"
)

// Latencies is an exact sample of packet latencies in whole cycles. It
// stores each observation once, as a uint32 in arrival order, beside an
// int64 running sum: four bytes a packet where a []float64 handed to
// Summarize costs sixteen (the slice plus the copy Summarize sorts).
//
// Its statistics are bit-identical to Mean, BatchMeansCI95 and Summarize's
// percentiles on the float64 images of the same data, as long as the sum
// stays below 2^53: sums of integers that small are exact in float64 in
// any order, and integers sort like their float64 images.
//
// The zero value is an empty sample.
type Latencies struct {
	xs     []uint32
	sum    int64
	sorted bool // Quantiles has run: arrival order is gone, the sample is closed
}

// Grow makes room for n further observations without reallocating.
func (l *Latencies) Grow(n int) { l.xs = slices.Grow(l.xs, n) }

// Add records one latency. It panics on a value outside [0, MaxUint32] —
// callers bound the run length so that no latency can be (see
// openloop.CheckPhases) — and after Quantiles.
func (l *Latencies) Add(cycles int64) {
	if cycles < 0 || cycles > math.MaxUint32 {
		panic("stats: latency outside [0, MaxUint32]")
	}
	if l.sorted {
		panic("stats: Latencies.Add after Quantiles")
	}
	l.xs = append(l.xs, uint32(cycles))
	l.sum += cycles
}

// Len returns the number of observations.
func (l *Latencies) Len() int { return len(l.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (l *Latencies) Mean() float64 {
	if len(l.xs) == 0 {
		return 0
	}
	return float64(l.sum) / float64(len(l.xs))
}

// BatchMeansCI95 is the package-level BatchMeansCI95 over the observations
// in arrival order. It must be taken before Quantiles, which gives that
// order up, and panics afterwards.
func (l *Latencies) BatchMeansCI95(batches int) float64 {
	if l.sorted {
		panic("stats: Latencies.BatchMeansCI95 after Quantiles")
	}
	return batchMeansCI95(len(l.xs), batches, func(lo, hi int) float64 {
		var sum int64
		for _, x := range l.xs[lo:hi] {
			sum += int64(x)
		}
		return float64(sum) / float64(hi-lo)
	})
}

// Quantiles returns the q-quantile of the sample for each q, by Quantile's
// interpolation; all zero for an empty sample, like Summarize. It sorts the
// sample in place — no copy is made — so arrival order is lost and the
// sample is closed to Add and BatchMeansCI95.
func (l *Latencies) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(l.xs) == 0 {
		return out
	}
	if !l.sorted {
		slices.Sort(l.xs)
		l.sorted = true
	}
	for i, q := range qs {
		out[i] = quantile(l.xs, q)
	}
	return out
}
