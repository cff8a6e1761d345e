package main

// Golden regression figures: the paper's router-parameter curves (Figs
// 3a/3b/4a), the topology comparison (Fig 6a) and the open-loop/batch
// correlation procedure of Fig 5 at golden scale — the same spec lists and
// plotters (plotters.go) and the same core.CorrelateOpenBatch the paper
// generators call, with fewer rates, shorter open-loop phases and a
// smaller batch, so CI can re-simulate them on every push (~5s of
// single-core simulation; each point also flows through the experiment
// cache when -cache is set).
// Only the parameter lists below are the gate's own: a change to how the
// paper figures are simulated, correlated or plotted moves these files.
//
// `figures -golden -out results/golden` (make golden-update) rewrites the
// committed goldens. The TestGoldenFigures harness in golden_test.go
// regenerates the same subset into a scratch directory and compares the
// CSVs against results/golden with per-metric tolerances — any change to
// router timing, allocation, routing, traffic, or methodology code that
// moves the reproduced numbers fails tier-1 until the goldens are
// deliberately regenerated.

import (
	"fmt"
	"slices"

	"noceval/internal/core"
	"noceval/internal/stats"
)

// Golden scale: short open-loop phases and a small batch keep a full
// regeneration within CI budgets while still exercising warmup,
// measurement, drain, and saturation detection.
var goldenPhases = core.OpenLoopOpts{Warmup: 2000, Measure: 3000, DrainLimit: 20000}

var (
	goldenRates = []float64{0.1, 0.2, 0.3}
	goldenTrs   = []int64{1, 2, 4}
	goldenMs    = []int{1, 4, 16}
)

const goldenB = 100

func init() {
	register("golden_fig03a", goldenFig03a)
	register("golden_fig03b", goldenFig03b)
	register("golden_fig04a", goldenFig04a)
	register("golden_fig06a", goldenFig06a)
	register("golden_corr", goldenCorr)
}

// goldenFig03a is the Fig 3a router-delay curve at golden scale.
func goldenFig03a(c *ctx) error {
	labels, trs := routerDelayParams(goldenTrs...)
	return c.writePanels(sweepPanel("golden_fig03a", "Golden Fig 3a: open-loop latency vs load across router delays",
		labels, trs, goldenRates, goldenPhases))
}

// goldenFig03b is the Fig 3b buffer-depth curve at golden scale.
func goldenFig03b(c *ctx) error {
	labels, qs := bufDepthParams(4, 16)
	return c.writePanels(sweepPanel("golden_fig03b", "Golden Fig 3b: open-loop latency vs load across buffer depths",
		labels, qs, goldenRates, goldenPhases))
}

// goldenFig04a is the Fig 4a batch-model router-delay grid at golden
// scale: normalized runtime and achieved throughput per m.
func goldenFig04a(c *ctx) error {
	labels, trs := routerDelayParams(goldenTrs...)
	return c.writePanels(mGridPanel("golden_fig04a", "Golden Fig 4a: batch-model runtime and throughput across router delays",
		labels, trs, goldenMs, core.ExperimentSpec{Kind: "batch", B: goldenB}, 0)) // T / T(tr=1, m=1)
}

// goldenFig06a is the Fig 6a topology comparison at golden scale.
func goldenFig06a(c *ctx) error {
	names, topos := topologyParams()
	return c.writePanels(sweepPanel("golden_fig06a", "Golden Fig 6a: open-loop latency vs load across topologies",
		names, topos, goldenRates, goldenPhases))
}

// goldenCorr emits the open-loop/batch correlation table (the Fig 5
// procedure: openBatchGrid, runOpenBatch, core.CorrelateOpenBatch) over
// the router-delay and buffer-depth sweeps. tr=1 and q=16 are the same
// network, so their cells are simulated once.
func goldenCorr(c *ctx) error {
	ms := []int{1, 4}
	trLabels, trs := routerDelayParams(goldenTrs...)
	qLabels, qs := bufDepthParams(2, 4, 8, 16)
	grid := slices.Concat(openBatchGrid(ms, trs, goldenB), openBatchGrid(ms, qs, goldenB))
	batch, open, _, err := c.runOpenBatch(grid, goldenPhases)
	if err != nil {
		return err
	}
	t := stats.NewTable("Golden: open-loop vs batch correlation (Fig 5 procedure, golden scale)",
		"sweep", "points", "pearson", "spearman")
	row := func(sweep string, labels []string, batch, open []*core.Result) error {
		corr, err := core.CorrelateOpenBatch(ms, labels, batch, open, false)
		if err != nil {
			return err
		}
		t.AddRow(sweep, fmt.Sprint(len(corr.Pairs)), fmt.Sprintf("%.4f", corr.Coefficient), fmt.Sprintf("%.4f", corr.Rank))
		return nil
	}
	nt := len(ms) * len(trs)
	if err := row("router delay", trLabels, batch[:nt], open[:nt]); err != nil {
		return err
	}
	if err := row("buffer depth", qLabels, batch[nt:], open[nt:]); err != nil {
		return err
	}
	return c.writeTable("golden_corr", t)
}
