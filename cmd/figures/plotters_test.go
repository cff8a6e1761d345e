package main

import (
	"reflect"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/openloop"
	"noceval/internal/stats"
)

// series is the comparable form of a plotted series.
type series struct {
	name   string
	xs, ys []float64
}

func plotted(f *stats.Figure) []series {
	out := make([]series, len(f.Series))
	for i, s := range f.Series {
		out[i] = series{s.Name, s.Xs, s.Ys}
	}
	return out
}

func pt(rate, lat float64, stable bool) *openloop.Result {
	return &openloop.Result{Rate: rate, AvgLatency: lat, Stable: stable}
}

func TestPlotSweeps(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		sweeps [][]*openloop.Result
		want   []series
	}{
		{"all stable, label order kept",
			[]string{"tr=2", "tr=1"},
			[][]*openloop.Result{
				{pt(0.1, 20, true), pt(0.2, 30, true)},
				{pt(0.1, 10, true), pt(0.2, 15, true)},
			},
			[]series{
				{"tr=2", []float64{0.1, 0.2}, []float64{20, 30}},
				{"tr=1", []float64{0.1, 0.2}, []float64{10, 15}},
			}},
		{"stops at the first unstable point and drops it",
			[]string{"q=4"},
			[][]*openloop.Result{{pt(0.1, 10, true), pt(0.2, 900, false), pt(0.3, 12, true)}},
			[]series{{"q=4", []float64{0.1}, []float64{10}}}},
		{"a variant unstable from the first rate keeps its (empty) series",
			[]string{"mesh", "ring"},
			[][]*openloop.Result{
				{pt(0.1, 10, true)},
				{pt(0.1, 5000, false), pt(0.2, 6000, false)},
			},
			[]series{
				{"mesh", []float64{0.1}, []float64{10}},
				{"ring", nil, nil},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := make([]*core.Result, len(tc.sweeps))
			for i, sweep := range tc.sweeps {
				res[i] = &core.Result{Sweep: sweep}
			}
			f := plotSweeps("title", tc.labels, res)
			if got := plotted(f); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("series = %+v\nwant     %+v", got, tc.want)
			}
			if f.Title != "title" || f.XLabel != "offered load (flits/cycle/node)" || f.YLabel != "average latency (cycles)" {
				t.Errorf("labels = %q / %q / %q", f.Title, f.XLabel, f.YLabel)
			}
		})
	}
}

func cell(runtime int64, theta float64) *closedloop.BatchResult {
	return &closedloop.BatchResult{Runtime: runtime, Throughput: theta}
}

func TestPlotGrid(t *testing.T) {
	grid := []*closedloop.BatchResult{ // variant-major, three xs per variant
		cell(100, 0.1), cell(50, 0.2), cell(40, 0.3),
		cell(200, 0.05), cell(80, 0.15), cell(60, 0.25),
	}
	labels := []string{"tr=1", "tr=2"}
	cases := []struct {
		name         string
		baseV, baseX int
		wantT        [][]float64 // per variant, runtimes over the base cell's
	}{
		{"first cell (tr=1, m=1)", 0, 0, [][]float64{{1, 0.5, 0.4}, {2, 0.8, 0.6}}},
		{"another variant's first column (fig04b: q=32, m=1)", 1, 0, [][]float64{{0.5, 0.25, 0.2}, {1, 0.4, 0.3}}},
		{"last column (fig16: tr=1, NAR=1)", 0, 2, [][]float64{{2.5, 1.25, 1}, {5, 2, 1.5}}},
	}
	xs := []int{1, 4, 16}
	wantXs := []float64{1, 4, 16}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := plotGrid("title", "x axis", labels, xs, grid, tc.baseV, tc.baseX)
			want := []series{
				{"tr=1 (T)", wantXs, tc.wantT[0]},
				{"tr=1 (theta)", wantXs, []float64{0.1, 0.2, 0.3}},
				{"tr=2 (T)", wantXs, tc.wantT[1]},
				{"tr=2 (theta)", wantXs, []float64{0.05, 0.15, 0.25}},
			}
			if got := plotted(f); !reflect.DeepEqual(got, want) {
				t.Errorf("series = %+v\nwant     %+v", got, want)
			}
			if f.XLabel != "x axis" || f.YLabel != "normalized runtime / achieved throughput" {
				t.Errorf("labels = %q / %q", f.XLabel, f.YLabel)
			}
		})
	}

	// A fractional axis (fig16's NAR) plots as given.
	f := plotGrid("title", "nar", labels, []float64{0.04, 0.2, 1}, grid, 0, 2)
	if got := f.Series[0].Xs; !reflect.DeepEqual(got, []float64{0.04, 0.2, 1}) {
		t.Errorf("float axis = %v", got)
	}
}

func TestScatterFigureGroupsInFirstAppearanceOrder(t *testing.T) {
	corr := core.Correlation{Pairs: []core.Pair{
		{Group: "m=4", X: 1, Y: 1}, {Group: "m=1", X: 1, Y: 1},
		{Group: "m=4", X: 2, Y: 3}, {Group: "m=1", X: 4, Y: 5},
	}}
	want := []series{
		{"m=4", []float64{1, 2}, []float64{1, 3}},
		{"m=1", []float64{1, 4}, []float64{1, 5}},
	}
	if got := plotted(scatterFigure("t", "x", "y", corr)); !reflect.DeepEqual(got, want) {
		t.Errorf("series = %+v\nwant     %+v", got, want)
	}
}

// The routing panels are simulated and written a before b on every run,
// so ledger records and "wrote" lines keep one order.
func TestRoutingPanelsOrdered(t *testing.T) {
	var got []string
	for _, p := range routingPanels {
		got = append(got, p.suffix+":"+p.pattern)
	}
	if want := []string{"a:uniform", "b:transpose"}; !reflect.DeepEqual(got, want) {
		t.Errorf("panels = %v, want %v", got, want)
	}
	labels, variants := routingParams("transpose")
	if want := []string{"DOR", "MA", "ROMM", "VAL"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
	if p := variants[3]; p.Routing != "val" || p.VCs != 4 || p.Pattern != "transpose" {
		t.Errorf("variant 3 = %+v", p)
	}
}

// The Fig 5 procedure lists the batch grid m-major and offers each
// open-loop run the throughput its batch cell achieved, at the caller's
// phases; a batch cell that hit the cycle limit is an error, not a point.
func TestOpenBatchGridAndRun(t *testing.T) {
	variants := []core.NetworkParams{core.Table2Network(1), core.Table2Network(2)}
	grid := openBatchGrid([]int{1, 4}, variants, 50)
	if len(grid) != 4 || grid[1].Network.RouterDelay != 2 || grid[2].M != 4 {
		t.Fatalf("grid is not m-major: %+v", grid)
	}
	ph := core.OpenLoopOpts{Warmup: 200, Measure: 1000, DrainLimit: 3000}
	extra := core.ExperimentSpec{Kind: "openloop", Network: variants[0], Rate: 0.05}
	batch, open, more, err := fastCtx(t).runOpenBatch(grid, ph, extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 || len(open) != 4 || len(more) != 1 || more[0].OpenLoop == nil {
		t.Fatalf("results: %d batch, %d open, %d extra", len(batch), len(open), len(more))
	}
	for i, r := range batch {
		want, err := core.OpenLoopWith(grid[i].Network, r.Batch.Throughput, ph)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(open[i].OpenLoop, want) {
			t.Errorf("cell %d: open-loop run is not the network at its batch throughput and phases", i)
		}
	}
	stuck := []*core.Result{batch[0], {Batch: &closedloop.BatchResult{}}}
	if _, err := batches(grid[:2], stuck); err == nil {
		t.Error("an incomplete batch cell was accepted")
	}
}
