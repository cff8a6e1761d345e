// Package stats provides the statistical machinery of the evaluation
// framework: summary statistics, Pearson correlation (the paper's headline
// metric for comparing methodologies), histograms, per-node heatmaps, and
// small formatting helpers used by the figure harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds moments and order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (q in [0,1]) of an ascending-sorted
// sample using linear interpolation. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	return quantileAt(len(sorted), q, func(r int) float64 { return sorted[r] })
}

// quantileAt is Quantile over n ascending values that at reads by rank:
// Latencies reads its percentiles through the same interpolation
// expression, on order statistics it selects without sorting. Which ranks
// are read depends on n and q only.
func quantileAt(n int, q float64, at func(rank int) float64) float64 {
	if n == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return at(0)
	}
	if q >= 1 {
		return at(n - 1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return at(n - 1)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. It returns an error when the lengths differ,
// fewer than two pairs are given, or either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Pearson sample length mismatch: %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 pairs, got %d", n)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: Pearson undefined for zero-variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation coefficient of the paired
// samples: the Pearson correlation of their ranks. It is robust to
// monotonic nonlinearity, which makes it a useful complement to Pearson in
// methodology comparisons (two simulators can agree on rankings while
// disagreeing on magnitudes). Ties receive average ranks.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Spearman sample length mismatch: %d vs %d", len(xs), len(ys))
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns average ranks (1-based) of the sample.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// JackknifeCorrCI returns the Pearson coefficient together with a jackknife
// estimate of its 95% confidence half-width: the coefficient is recomputed
// leaving out each pair in turn and the spread of the leave-one-out values
// bounds the estimate's stability. Methodology studies report correlations
// from small samples, where a point estimate alone overstates certainty.
func JackknifeCorrCI(xs, ys []float64) (r, halfWidth float64, err error) {
	r, err = Pearson(xs, ys)
	if err != nil {
		return 0, 0, err
	}
	n := len(xs)
	if n < 3 {
		return r, 0, nil
	}
	loo := make([]float64, 0, n)
	bx := make([]float64, 0, n-1)
	by := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		bx, by = bx[:0], by[:0]
		for j := 0; j < n; j++ {
			if j != i {
				bx = append(bx, xs[j])
				by = append(by, ys[j])
			}
		}
		ri, err := Pearson(bx, by)
		if err != nil {
			continue // a leave-one-out subsample lost all variance
		}
		loo = append(loo, ri)
	}
	if len(loo) < 2 {
		return r, 0, nil
	}
	m := Mean(loo)
	variance := 0.0
	for _, v := range loo {
		variance += (v - m) * (v - m)
	}
	k := float64(len(loo))
	variance *= (k - 1) / k // jackknife variance scaling
	return r, 1.96 * math.Sqrt(variance), nil
}

// tQuantile975 holds two-sided 95% Student-t critical values for small
// degrees of freedom; beyond the table the normal value 1.96 applies.
var tQuantile975 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// BatchMeansCI95 estimates the 95% confidence half-width of the mean of a
// correlated sample (e.g. steady-state packet latencies) using the method
// of batch means: the sequence is split into `batches` contiguous batches
// whose means are treated as independent observations. It returns 0 when
// the sample is too small to form at least two batches of two.
func BatchMeansCI95(xs []float64, batches int) float64 {
	return batchMeansCI95(len(xs), batches, func(lo, hi int) float64 { return Mean(xs[lo:hi]) })
}

// batchMeansCI95 is the method of batch means over any sample of n
// observations whose contiguous ranges can be averaged: it picks the batch
// boundaries, and turns the batch means into the half-width. It asks mean
// for the batches in order, each starting where the last one ended.
func batchMeansCI95(n, batches int, mean func(lo, hi int) float64) float64 {
	if batches < 2 {
		batches = 10
	}
	per := n / batches
	if per < 2 {
		return 0
	}
	means := make([]float64, batches)
	for i := range means {
		means[i] = mean(i*per, (i+1)*per)
	}
	s := Summarize(means)
	df := batches - 1
	t := 1.96
	if df < len(tQuantile975) {
		t = tQuantile975[df]
	}
	return t * s.Std / math.Sqrt(float64(batches))
}

// Normalize returns xs scaled so the element at baseline index is 1.0.
// It panics when the index is out of range and returns an error when the
// baseline element is zero.
func Normalize(xs []float64, baseline int) ([]float64, error) {
	base := xs[baseline]
	if base == 0 {
		return nil, fmt.Errorf("stats: Normalize baseline element is zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out, nil
}
