package main

// The plotters behind the paper's curve, grid and scatter figures. The
// paper generators (network_figs.go, exec_figs.go) and the golden
// regression subset (golden_figs.go) call the same three functions, so a
// change to how a figure is simulated or plotted moves the gate too.

import (
	"fmt"

	"noceval/internal/core"
	"noceval/internal/openloop"
	"noceval/internal/par"
	"noceval/internal/stats"
)

// routerDelayParams returns the "tr=N" labels and the baseline network at
// each of the given router delays.
func routerDelayParams(trs ...int64) ([]string, func(int) core.NetworkParams) {
	labels := make([]string, len(trs))
	for i, tr := range trs {
		labels[i] = fmt.Sprintf("tr=%d", tr)
	}
	return labels, func(i int) core.NetworkParams {
		p := core.Baseline()
		p.RouterDelay = trs[i]
		return p
	}
}

// bufDepthParams returns the "q=N" labels and the baseline network at each
// of the given VC buffer depths.
func bufDepthParams(qs ...int) ([]string, func(int) core.NetworkParams) {
	labels := make([]string, len(qs))
	for i, q := range qs {
		labels[i] = fmt.Sprintf("q=%d", q)
	}
	return labels, func(i int) core.NetworkParams {
		p := core.Baseline()
		p.BufDepth = qs[i]
		return p
	}
}

// sweepFigure runs one open-loop sweep per variant (in parallel; every
// sweep fans out across cores itself) and plots latency against load.
func sweepFigure(title string, labels []string, vary func(int) core.NetworkParams, rates []float64, o core.OpenLoopOpts) (*stats.Figure, error) {
	sweeps := make([][]*openloop.Result, len(labels))
	if err := par.Parallel(len(labels), 0, func(i int) (err error) {
		sweeps[i], err = core.OpenLoopSweepWith(vary(i), rates, o)
		return err
	}); err != nil {
		return nil, err
	}
	return plotSweeps(title, labels, sweeps), nil
}

// plotSweeps draws one series per label from that variant's sweep: the
// points before the first unstable one. A saturated point's latency
// measures the drain limit, not the network, so it and everything after
// it stay off the curve.
func plotSweeps(title string, labels []string, sweeps [][]*openloop.Result) *stats.Figure {
	f := stats.NewFigure(title, "offered load (flits/cycle/node)", "average latency (cycles)")
	for i, label := range labels {
		s := f.AddSeries(label)
		for _, r := range sweeps[i] {
			if !r.Stable {
				break
			}
			s.Add(r.Rate, r.AvgLatency)
		}
	}
	return f
}

// gridFigure runs the batch model over every variant and every m
// (core.BatchGrid) and plots the grid against m; (baseV, 0) names the cell
// runtimes are normalized to.
func gridFigure(title string, labels []string, vary func(int) core.NetworkParams, ms []int, bp core.BatchParams, baseV int) (*stats.Figure, error) {
	variants := make([]core.NetworkParams, len(labels))
	for i := range variants {
		variants[i] = vary(i)
	}
	grid, err := core.BatchGrid(variants, ms, bp)
	if err != nil {
		return nil, err
	}
	return plotGrid(title, "max outstanding requests (m)", labels, ms, grid, baseV, 0), nil
}

// plotGrid draws a [variant][x] grid of batch results as two series per
// variant: "<label> (T)", the runtime divided by that of the base cell
// grid[baseV][baseX], and "<label> (theta)", the achieved throughput as
// measured.
func plotGrid[X int | float64](title, xLabel string, labels []string, xs []X, grid [][]*core.BatchGridCell, baseV, baseX int) *stats.Figure {
	f := stats.NewFigure(title, xLabel, "normalized runtime / achieved throughput")
	baseT := float64(grid[baseV][baseX].Runtime)
	for vi, label := range labels {
		st := f.AddSeries(label + " (T)")
		sth := f.AddSeries(label + " (theta)")
		for xi, x := range xs {
			st.Add(float64(x), float64(grid[vi][xi].Runtime)/baseT)
			sth.Add(float64(x), grid[vi][xi].Throughput)
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
