package main

// Golden regression figures: scaled-down regenerations of the paper's
// router-parameter curves (Figs 3a/3b/4a), the topology comparison
// (Fig 6a), and the open-loop/batch correlation procedure of Fig 5,
// sized so CI can re-simulate them on every push (~30s of single-core
// simulation; each point also flows through the experiment cache when
// -cache is set).
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

	"noceval/internal/core"
	"noceval/internal/openloop"
	"noceval/internal/par"
	"noceval/internal/stats"
)

// Golden scale: short open-loop phases and a small batch keep a full
// regeneration within CI budgets while still exercising warmup,
// measurement, drain, and saturation detection.
var goldenPhases = core.OpenLoopOpts{Warmup: 2000, Measure: 3000, DrainLimit: 20000}

var (
	goldenRates = []float64{0.1, 0.2, 0.3}
	goldenTrs   = []int64{1, 2, 4}
	goldenQs    = []int{4, 16}
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

// goldenIDs returns the golden generator ids in deterministic order.
func goldenIDs() []string {
	return []string{"golden_fig03a", "golden_fig03b", "golden_fig04a", "golden_fig06a", "golden_corr"}
}

// goldenSweepFigure renders one open-loop figure over the golden rates
// for a set of parameter variants.
func goldenSweepFigure(title string, labels []string, vary func(i int) core.NetworkParams) (*stats.Figure, error) {
	f := stats.NewFigure(title, "offered load (flits/cycle/node)", "average latency (cycles)")
	sweeps := make([][]*openloop.Result, len(labels))
	if err := par.Parallel(len(labels), 0, func(i int) error {
		res, err := core.OpenLoopSweepWith(vary(i), goldenRates, goldenPhases)
		sweeps[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	for i, label := range labels {
		s := f.AddSeries(label)
		for _, r := range sweeps[i] {
			if !r.Stable {
				break
			}
			s.Add(r.Rate, r.AvgLatency)
		}
	}
	return f, nil
}

// goldenFig03a is the Fig 3a router-delay curve at golden scale.
func goldenFig03a(c *ctx) error {
	f, err := goldenSweepFigure("Golden Fig 3a: open-loop latency vs load across router delays",
		[]string{"tr=1", "tr=2", "tr=4"}, func(i int) core.NetworkParams {
			p := core.Baseline()
			p.RouterDelay = goldenTrs[i]
			return p
		})
	if err != nil {
		return err
	}
	return c.writeFigure("golden_fig03a", f)
}

// goldenFig03b is the Fig 3b buffer-depth curve at golden scale.
func goldenFig03b(c *ctx) error {
	f, err := goldenSweepFigure("Golden Fig 3b: open-loop latency vs load across buffer depths",
		[]string{"q=4", "q=16"}, func(i int) core.NetworkParams {
			p := core.Baseline()
			p.BufDepth = goldenQs[i]
			return p
		})
	if err != nil {
		return err
	}
	return c.writeFigure("golden_fig03b", f)
}

// goldenFig04a is the Fig 4a batch-model router-delay grid at golden
// scale: normalized runtime and achieved throughput per m.
func goldenFig04a(c *ctx) error {
	var variants []core.NetworkParams
	for _, tr := range goldenTrs {
		p := core.Baseline()
		p.RouterDelay = tr
		variants = append(variants, p)
	}
	grid, err := core.BatchGrid(variants, goldenMs, core.BatchParams{B: goldenB})
	if err != nil {
		return err
	}
	f := stats.NewFigure("Golden Fig 4a: batch-model runtime and throughput across router delays",
		"max outstanding requests (m)", "normalized runtime / achieved throughput")
	baseT := float64(grid[0][0].Runtime) // tr=1, m=1
	for vi, tr := range goldenTrs {
		st := f.AddSeries(fmt.Sprintf("tr=%d (T)", tr))
		sth := f.AddSeries(fmt.Sprintf("tr=%d (theta)", tr))
		for mi, m := range goldenMs {
			st.Add(float64(m), float64(grid[vi][mi].Runtime)/baseT)
			sth.Add(float64(m), grid[vi][mi].Throughput)
		}
	}
	return c.writeFigure("golden_fig04a", f)
}

// goldenFig06a is the Fig 6a topology comparison at golden scale.
func goldenFig06a(c *ctx) error {
	topos := []string{"mesh8x8", "torus8x8", "ring64"}
	f, err := goldenSweepFigure("Golden Fig 6a: open-loop latency vs load across topologies",
		[]string{"mesh", "torus", "ring"}, func(i int) core.NetworkParams {
			p := core.Baseline()
			p.Topology = topos[i]
			return p
		})
	if err != nil {
		return err
	}
	return c.writeFigure("golden_fig06a", f)
}

// goldenCorrSweep runs the Fig 5 correlation procedure at golden scale
// for one parameter sweep: batch runtime vs open-loop latency at the
// batch's achieved load, normalized within each m-group.
func goldenCorrSweep(vary func(i int) core.NetworkParams, nVariants int) (pearson, rank float64, n int, err error) {
	ms := []int{1, 4}
	batchRaw := make([]float64, len(ms)*nVariants)
	openRaw := make([]float64, len(ms)*nVariants)
	err = par.Parallel(len(ms)*nVariants, 0, func(idx int) error {
		mi, vi := idx/nVariants, idx%nVariants
		p := vary(vi)
		res, err := core.Batch(p, core.BatchParams{B: goldenB, M: ms[mi]})
		if err != nil {
			return err
		}
		if !res.Completed {
			return fmt.Errorf("golden batch m=%d variant %d did not complete", ms[mi], vi)
		}
		batchRaw[idx] = float64(res.Runtime)
		ol, err := core.OpenLoopWith(p, res.Throughput, goldenPhases)
		if err != nil {
			return err
		}
		openRaw[idx] = ol.AvgLatency
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var xs, ys []float64
	for mi := range ms {
		bn, err := core.NormalizeGroup(batchRaw[mi*nVariants : (mi+1)*nVariants])
		if err != nil {
			return 0, 0, 0, err
		}
		on, err := core.NormalizeGroup(openRaw[mi*nVariants : (mi+1)*nVariants])
		if err != nil {
			return 0, 0, 0, err
		}
		xs = append(xs, on...)
		ys = append(ys, bn...)
	}
	pearson, err = stats.Pearson(xs, ys)
	if err != nil {
		return 0, 0, 0, err
	}
	rank, err = stats.Spearman(xs, ys)
	if err != nil {
		return 0, 0, 0, err
	}
	return pearson, rank, len(xs), nil
}

// goldenCorr emits the open-loop/batch correlation table over the
// router-delay and buffer-depth sweeps.
func goldenCorr(c *ctx) error {
	t := stats.NewTable("Golden: open-loop vs batch correlation (Fig 5 procedure, golden scale)",
		"sweep", "points", "pearson", "spearman")
	trP, trR, trN, err := goldenCorrSweep(func(i int) core.NetworkParams {
		p := core.Baseline()
		p.RouterDelay = goldenTrs[i]
		return p
	}, len(goldenTrs))
	if err != nil {
		return err
	}
	t.AddRow("router delay", fmt.Sprint(trN), fmt.Sprintf("%.4f", trP), fmt.Sprintf("%.4f", trR))

	qs := []int{2, 4, 8, 16}
	qP, qR, qN, err := goldenCorrSweep(func(i int) core.NetworkParams {
		p := core.Baseline()
		p.BufDepth = qs[i]
		return p
	}, len(qs))
	if err != nil {
		return err
	}
	t.AddRow("buffer depth", fmt.Sprint(qN), fmt.Sprintf("%.4f", qP), fmt.Sprintf("%.4f", qR))
	return c.writeTable("golden_corr", t)
}
