package main

// The spec lists and plotters behind the paper's curve, grid and scatter
// figures. A generator lists the specs of a stage, simulates them with one
// RunAll on ctx.runs — the invocation's core.RunSet, so each distinct spec
// is simulated once across every generator and duplicates share a
// read-only result — and turns the results into files without simulating
// anything. The paper
// generators (network_figs.go, exec_figs.go) and the golden regression
// subset (golden_figs.go) call the same functions, so a change to how a
// figure is simulated or plotted moves the gate too.

import (
	"context"
	"fmt"
	"slices"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/stats"
)

// baselineVariants returns, for each value v, the label(v) and the
// baseline network changed by set(&p, v).
func baselineVariants[T any](vals []T, label func(T) string, set func(*core.NetworkParams, T)) ([]string, []core.NetworkParams) {
	labels := make([]string, len(vals))
	variants := make([]core.NetworkParams, len(vals))
	for i, v := range vals {
		labels[i] = label(v)
		variants[i] = core.Baseline()
		set(&variants[i], v)
	}
	return labels, variants
}

// routerDelayParams returns the "tr=N" labels and the baseline network at
// each of the given router delays.
func routerDelayParams(trs ...int64) ([]string, []core.NetworkParams) {
	return baselineVariants(trs, func(tr int64) string { return fmt.Sprintf("tr=%d", tr) },
		func(p *core.NetworkParams, tr int64) { p.RouterDelay = tr })
}

// bufDepthParams returns the "q=N" labels and the baseline network at each
// of the given VC buffer depths.
func bufDepthParams(qs ...int) ([]string, []core.NetworkParams) {
	return baselineVariants(qs, func(q int) string { return fmt.Sprintf("q=%d", q) },
		func(p *core.NetworkParams, q int) { p.BufDepth = q })
}

// openLoopSpec is one open-loop run of p at rate with the phase lengths of
// ph (zero = the defaults the paper figures use).
func openLoopSpec(p core.NetworkParams, rate float64, ph core.OpenLoopOpts) core.ExperimentSpec {
	return core.ExperimentSpec{Kind: "openloop", Network: p, Rate: rate,
		Warmup: ph.Warmup, Measure: ph.Measure, DrainLimit: ph.DrainLimit}
}

// batches returns the batch result of every spec's run, or an error naming
// the first batch that did not complete.
func batches(specs []core.ExperimentSpec, res []*core.Result) ([]*closedloop.BatchResult, error) {
	out := make([]*closedloop.BatchResult, len(res))
	for i, r := range res {
		if !r.Batch.Completed {
			return nil, fmt.Errorf("batch %s m=%d did not complete", specs[i].Network, specs[i].M)
		}
		out[i] = r.Batch
	}
	return out, nil
}

// openBatchGrid lists the batch half of the Fig 5 procedure: a run of b
// transactions for every variant at every m, m-major as
// core.CorrelateOpenBatch reads it.
func openBatchGrid(ms []int, variants []core.NetworkParams, b int) []core.ExperimentSpec {
	var specs []core.ExperimentSpec
	for _, m := range ms {
		for _, p := range variants {
			specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: m})
		}
	}
	return specs
}

// runOpenBatch runs the two stages of the Fig 5 procedure: the batch grid
// with the extra specs beside it, then every grid cell's network offered
// the throughput its batch run achieved, at the phases of ph. It returns
// the grid's results, the open-loop results in grid order, and the extra
// specs' results.
func (c *ctx) runOpenBatch(grid []core.ExperimentSpec, ph core.OpenLoopOpts, extra ...core.ExperimentSpec) (batch, open, more []*core.Result, err error) {
	res, err := c.runs.RunAll(context.Background(), slices.Concat(grid, extra))
	if err != nil {
		return nil, nil, nil, err
	}
	batch, more = res[:len(grid)], res[len(grid):]
	done, err := batches(grid, batch)
	if err != nil {
		return nil, nil, nil, err
	}
	specs := make([]core.ExperimentSpec, len(done))
	for i, r := range done {
		specs[i] = openLoopSpec(grid[i].Network, r.Throughput, ph)
	}
	open, err = c.runs.RunAll(context.Background(), specs)
	return batch, open, more, err
}

// A panel is one figure of a generator: the specs it plots, the reduction
// from their results, and a note under the plot (none when empty).
type panel struct {
	id    string
	specs []core.ExperimentSpec
	plot  func(res []*core.Result) (*stats.Figure, error)
	note  string
}

// writePanels simulates the specs of every panel in one stage, then plots
// and writes the panels in order.
func (c *ctx) writePanels(panels ...panel) error {
	var specs []core.ExperimentSpec
	for _, p := range panels {
		specs = append(specs, p.specs...)
	}
	res, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return err
	}
	for _, p := range panels {
		f, err := p.plot(res[:len(p.specs)])
		if err != nil {
			return err
		}
		res = res[len(p.specs):]
		if p.note != "" {
			f.Note("%s", p.note)
		}
		if err := c.writeFigure(p.id, f); err != nil {
			return err
		}
	}
	return nil
}

// sweepPanel sweeps every variant over rates and plots latency against
// load.
func sweepPanel(id, title string, labels []string, variants []core.NetworkParams, rates []float64, ph core.OpenLoopOpts) panel {
	specs := make([]core.ExperimentSpec, len(variants))
	for i, p := range variants {
		specs[i] = openLoopSpec(p, 0, ph)
		specs[i].Kind, specs[i].Rates = "sweep", rates
	}
	return panel{id: id, specs: specs, plot: func(res []*core.Result) (*stats.Figure, error) {
		return plotSweeps(title, labels, res), nil
	}}
}

// plotSweeps draws one series per label from that variant's sweep result:
// the points before the first unstable one. A saturated point's latency
// measures the drain limit, not the network, so it and everything after
// it stay off the curve.
func plotSweeps(title string, labels []string, sweeps []*core.Result) *stats.Figure {
	f := stats.NewFigure(title, "offered load (flits/cycle/node)", "average latency (cycles)")
	for i, label := range labels {
		s := f.AddSeries(label)
		for _, r := range sweeps[i].Sweep {
			if !r.Stable {
				break
			}
			s.Add(r.Rate, r.AvgLatency)
		}
	}
	return f
}

// gridPanel runs the batch spec cell(p, x) for every variant p and every x
// and plots the grid against x; (baseV, baseX) names the cell runtimes
// are normalized to.
func gridPanel[X int | float64](id, title, xLabel string, labels []string, variants []core.NetworkParams, xs []X,
	cell func(core.NetworkParams, X) core.ExperimentSpec, baseV, baseX int) panel {
	var specs []core.ExperimentSpec
	for _, p := range variants {
		for _, x := range xs {
			specs = append(specs, cell(p, x))
		}
	}
	return panel{id: id, specs: specs, plot: func(res []*core.Result) (*stats.Figure, error) {
		grid, err := batches(specs, res)
		if err != nil {
			return nil, err
		}
		return plotGrid(title, xLabel, labels, xs, grid, baseV, baseX), nil
	}}
}

// mGridPanel is the gridPanel over m: the batch spec cell with every
// variant's network at every m, normalized to (baseV, ms[0]).
func mGridPanel(id, title string, labels []string, variants []core.NetworkParams, ms []int, cell core.ExperimentSpec, baseV int) panel {
	return gridPanel(id, title, "max outstanding requests (m)", labels, variants, ms,
		func(p core.NetworkParams, m int) core.ExperimentSpec {
			s := cell
			s.Network, s.M = p, m
			return s
		}, baseV, 0)
}

// plotGrid draws a variant-major grid of batch results, len(xs) per
// variant, as two series per variant: "<label> (T)", the runtime divided
// by that of the base cell (baseV, baseX), and "<label> (theta)", the
// achieved throughput as measured.
func plotGrid[X int | float64](title, xLabel string, labels []string, xs []X, grid []*closedloop.BatchResult, baseV, baseX int) *stats.Figure {
	f := stats.NewFigure(title, xLabel, "normalized runtime / achieved throughput")
	baseT := float64(grid[baseV*len(xs)+baseX].Runtime)
	for vi, label := range labels {
		st := f.AddSeries(label + " (T)")
		sth := f.AddSeries(label + " (theta)")
		for xi, x := range xs {
			r := grid[vi*len(xs)+xi]
			st.Add(float64(x), float64(r.Runtime)/baseT)
			sth.Add(float64(x), r.Throughput)
		}
	}
	return f
}

// scatterFigure plots a correlation's pairs as one series per group, in
// order of first appearance.
func scatterFigure(title, xl, yl string, corr core.Correlation) *stats.Figure {
	f := stats.NewFigure(title, xl, yl)
	byGroup := map[string]*stats.Series{}
	for _, pt := range corr.Pairs {
		s := byGroup[pt.Group]
		if s == nil {
			s = f.AddSeries(pt.Group)
			byGroup[pt.Group] = s
		}
		s.Add(pt.X, pt.Y)
	}
	return f
}
