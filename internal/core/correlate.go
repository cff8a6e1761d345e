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

// CorrelateOpenBatch implements the Fig 5 procedure for one parameter
// sweep: for every m in ms and every parameter variant, a batch run yields
// runtime T and achieved throughput θ; an open-loop run at offered load θ
// yields the average latency; both are normalized to the variant at index
// 0 within each m-group, and the Pearson coefficient is computed over all
// points. vary(i) must return the network parameters of variant i; labels
// name the variants. worstCase selects the open-loop worst-case per-node
// latency instead of the average (the Fig 8 topology methodology). o sets
// the open-loop phase lengths and cancellation of every cell (zero = the
// defaults the paper figures use; the golden gate passes shortened
// phases); like a sweep, the concurrent cells ignore o.Hooks.
func CorrelateOpenBatch(ms []int, labels []string, vary func(i int) NetworkParams, b int, worstCase bool, o OpenLoopOpts) (Correlation, error) {
	o.Hooks = Hooks{}
	nm, nl := len(ms), len(labels)
	batchRaw := make([]float64, nm*nl)
	openRaw := make([]float64, nm*nl)
	// Every (m, variant) cell is an independent pair of simulations; run
	// them across all cores.
	err := par.Parallel(nm*nl, 0, func(idx int) error {
		mi, li := idx/nl, idx%nl
		p := vary(li)
		res, err := Batch(p, BatchParams{B: b, M: ms[mi], Ctx: o.Ctx})
		if err != nil {
			return fmt.Errorf("core: batch %s m=%d: %w", labels[li], ms[mi], err)
		}
		if !res.Completed {
			return fmt.Errorf("core: batch %s m=%d did not complete", labels[li], ms[mi])
		}
		batchRaw[idx] = float64(res.Runtime)

		ol, err := OpenLoopWith(p, res.Throughput, o)
		if err != nil {
			return fmt.Errorf("core: open-loop %s m=%d: %w", labels[li], ms[mi], err)
		}
		if worstCase {
			openRaw[idx] = ol.WorstLatency
		} else {
			openRaw[idx] = ol.AvgLatency
		}
		return nil
	})
	if err != nil {
		return Correlation{}, err
	}

	var pairs []Pair
	for mi, m := range ms {
		bn, err := NormalizeGroup(batchRaw[mi*nl : (mi+1)*nl])
		if err != nil {
			return Correlation{}, err
		}
		on, err := NormalizeGroup(openRaw[mi*nl : (mi+1)*nl])
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
