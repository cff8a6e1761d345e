package core

import (
	"fmt"

	"noceval/internal/par"
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

// correlate computes the correlation statistics over the pairs.
func correlate(pairs []Pair) (Correlation, error) {
	xs := make([]float64, len(pairs))
	ys := make([]float64, len(pairs))
	for i, p := range pairs {
		xs[i], ys[i] = p.X, p.Y
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

// NormalizeGroup scales each group's values so its first element is 1
// (the paper normalizes every m-group and every benchmark to the baseline
// parameter value, footnote 2).
func NormalizeGroup(values []float64) ([]float64, error) {
	return stats.Normalize(values, 0)
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
	nl := len(labels)
	if n := len(ms) * nl; len(batch) != n || len(open) != n {
		return Correlation{}, fmt.Errorf("core: %d batch and %d open-loop results for %d cells", len(batch), len(open), n)
	}
	var pairs []Pair
	for mi, m := range ms {
		batchRaw := make([]float64, nl)
		openRaw := make([]float64, nl)
		for li := range labels {
			batchRaw[li] = float64(batch[mi*nl+li].Batch.Runtime)
			ol := open[mi*nl+li].OpenLoop
			openRaw[li] = ol.AvgLatency
			if worstCase {
				openRaw[li] = ol.WorstLatency
			}
		}
		bn, err := NormalizeGroup(batchRaw)
		if err != nil {
			return Correlation{}, err
		}
		on, err := NormalizeGroup(openRaw)
		if err != nil {
			return Correlation{}, err
		}
		for li := range labels {
			pairs = append(pairs, Pair{
				Group: fmt.Sprintf("m=%d", m),
				Label: labels[li],
				X:     on[li],
				Y:     bn[li],
			})
		}
	}
	return correlate(pairs)
}

// ExecSweep runs one benchmark across router delays on the Table II system
// (in parallel — each delay is an independent simulation) and returns its
// normalized runtimes (normalized to the first delay).
func ExecSweep(bench string, trs []int64, ep ExecParams) ([]float64, error) {
	runtimes := make([]float64, len(trs))
	err := par.Parallel(len(trs), 0, func(i int) error {
		e := ep
		e.Benchmark = bench
		res, err := Exec(Table2Network(trs[i]), e)
		if err != nil {
			return err
		}
		runtimes[i] = float64(res.Cycles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NormalizeGroup(runtimes)
}

// BatchSweep runs the batch model across router delays on the Table II
// network and returns normalized runtimes.
func BatchSweep(trs []int64, bp BatchParams) ([]float64, error) {
	runtimes := make([]float64, len(trs))
	err := par.Parallel(len(trs), 0, func(i int) error {
		res, err := Batch(Table2Network(trs[i]), bp)
		if err != nil {
			return err
		}
		if !res.Completed {
			return fmt.Errorf("core: batch sweep tr=%d did not complete", trs[i])
		}
		runtimes[i] = float64(res.Runtime)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NormalizeGroup(runtimes)
}

// CorrelateExecBatch compares execution-driven runtimes against a batch-
// model variant across the router-delay sweep (the Figs 15/19/22
// methodology): execNorm[bench] and batchNorm[bench] must hold runtimes
// normalized to the first delay. The coefficient is computed over all
// (benchmark, delay) points.
func CorrelateExecBatch(benchmarks []string, trs []int64, execNorm, batchNorm map[string][]float64) (Correlation, error) {
	var pairs []Pair
	for _, b := range benchmarks {
		en, bn := execNorm[b], batchNorm[b]
		if len(en) != len(trs) || len(bn) != len(trs) {
			return Correlation{}, fmt.Errorf("core: %s has %d exec and %d batch points for %d delays",
				b, len(en), len(bn), len(trs))
		}
		for i, tr := range trs {
			pairs = append(pairs, Pair{
				Group: b,
				Label: fmt.Sprintf("tr=%d", tr),
				X:     en[i],
				Y:     bn[i],
			})
		}
	}
	return correlate(pairs)
}
