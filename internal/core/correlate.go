package core

import (
	"fmt"

	"noceval/internal/stats"
)

// Pair is one point of a methodology scatter plot: the same configuration
// measured by two methodologies, normalized within its group.
type Pair struct {
	Group string  // e.g. "m=4" or a benchmark name
	Label string  // e.g. "tr=2"
	X, Y  float64 // normalized measurements of the two methodologies
}

// Correlation is the outcome of a cross-methodology comparison.
type Correlation struct {
	Pairs []Pair
	// Coefficient is the Pearson correlation (the paper's metric); CI95 a
	// jackknife 95% half-width around it; Rank the Spearman coefficient
	// (agreement on orderings, robust to magnitude differences).
	Coefficient float64
	CI95        float64
	Rank        float64
}

// NormalizeGroup scales each group's values so its first element is 1
// (the paper normalizes every m-group and every benchmark to the baseline
// parameter value, footnote 2).
func NormalizeGroup(values []float64) ([]float64, error) {
	return stats.Normalize(values, 0)
}

// correlateGroups correlates x against y over len(groups) groups of
// len(labels) cells, cell k being (groups[k/len(labels)],
// labels[k%len(labels)]): both are normalized to the group's first cell
// and the statistics are computed over all points.
func correlateGroups(groups, labels []string, x, y func(k int) float64) (Correlation, error) {
	nl := len(labels)
	var pairs []Pair
	var xs, ys []float64
	for gi, g := range groups {
		gx, gy := make([]float64, nl), make([]float64, nl)
		for li := range labels {
			gx[li], gy[li] = x(gi*nl+li), y(gi*nl+li)
		}
		xn, err := NormalizeGroup(gx)
		if err != nil {
			return Correlation{}, err
		}
		yn, err := NormalizeGroup(gy)
		if err != nil {
			return Correlation{}, err
		}
		for li, l := range labels {
			pairs = append(pairs, Pair{Group: g, Label: l, X: xn[li], Y: yn[li]})
		}
		xs, ys = append(xs, xn...), append(ys, yn...)
	}
	r, ci, err := stats.JackknifeCorrCI(xs, ys)
	if err != nil {
		return Correlation{Pairs: pairs}, err
	}
	rank, err := stats.Spearman(xs, ys)
	if err != nil {
		rank = 0 // rank degenerate (e.g. constant sample); Pearson stands
	}
	return Correlation{Pairs: pairs, Coefficient: r, CI95: ci, Rank: rank}, nil
}

// CorrelateOpenBatch is the Fig 5 procedure for one parameter sweep,
// reduced from runs already made: batch[k] and open[k] hold cell
// (ms[k/len(labels)], labels[k%len(labels)]) — a batch run, yielding
// runtime T, and an open-loop run of the same network at the throughput
// that batch run achieved. T and the open-loop average latency (worstCase:
// the worst per-node latency, the Fig 8 topology methodology) are
// normalized to the variant at index 0 within each m-group, and the
// Pearson coefficient is computed over all points. A caller correlates a
// prefix of its ms by passing the matching prefix of both grids.
func CorrelateOpenBatch(ms []int, labels []string, batch, open []*Result, worstCase bool) (Correlation, error) {
	if n := len(ms) * len(labels); len(batch) != n || len(open) != n {
		return Correlation{}, fmt.Errorf("core: %d batch and %d open-loop results for %d cells", len(batch), len(open), n)
	}
	groups := make([]string, len(ms))
	for i, m := range ms {
		groups[i] = fmt.Sprintf("m=%d", m)
	}
	return correlateGroups(groups, labels, func(k int) float64 {
		if worstCase {
			return open[k].OpenLoop.WorstLatency
		}
		return open[k].OpenLoop.AvgLatency
	}, func(k int) float64 { return float64(batch[k].Batch.Runtime) })
}

// CorrelateExecBatch compares execution-driven runtimes against a batch-
// model variant across a router-delay sweep (the Figs 15/19/22
// methodology), reduced from runs already made: exec[k] and batch[k] hold
// cell (benchmarks[k/len(trs)], trs[k%len(trs)]) — an exec run and a
// batch run of the same delay. Both runtimes are normalized to the first
// delay within each benchmark, and the coefficient is computed over all
// (benchmark, delay) points.
func CorrelateExecBatch(benchmarks []string, trs []int64, exec, batch []*Result) (Correlation, error) {
	if n := len(benchmarks) * len(trs); len(exec) != n || len(batch) != n {
		return Correlation{}, fmt.Errorf("core: %d exec and %d batch results for %d cells", len(exec), len(batch), n)
	}
	labels := make([]string, len(trs))
	for i, tr := range trs {
		labels[i] = fmt.Sprintf("tr=%d", tr)
	}
	return correlateGroups(benchmarks, labels, func(k int) float64 { return float64(exec[k].Exec.Cycles) },
		func(k int) float64 { return float64(batch[k].Batch.Runtime) })
}
