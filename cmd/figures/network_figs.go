package main

// Network-only figures: the open-loop and batch-model experiments of
// §II-B and §III (Figs 1-12).

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"noceval/internal/core"
	"noceval/internal/stats"
)

// sweepRates is the offered-load axis used by the open-loop figures.
func sweepRates(hi float64) []float64 {
	var out []float64
	for r := 0.02; r <= hi; r += 0.02 {
		out = append(out, r)
	}
	return out
}

var batchMs = []int{1, 2, 4, 8, 16, 32}

func init() {
	register("fig01", fig01)
	register("fig02", fig02)
	register("fig03", fig03)
	register("fig04", fig04)
	register("fig05", fig05)
	register("fig06", fig06)
	register("fig07", fig07)
	register("fig08", fig08)
	register("fig09", fig09)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
}

// fig01 reproduces the canonical latency vs offered traffic curve.
func fig01(c *ctx) error {
	res, err := c.runs.RunAll(context.Background(), []core.ExperimentSpec{{Kind: "sweep", Network: core.Baseline(), Rates: sweepRates(0.5)}})
	if err != nil {
		return err
	}
	results := res[0].Sweep
	f := stats.NewFigure("Fig 1: latency vs offered traffic (8x8 mesh, DOR, uniform)",
		"offered load (flits/cycle/node)", "average latency (cycles)")
	s := f.AddSeries("avg latency")
	var zeroLoad, sat float64
	if len(results) > 0 {
		zeroLoad = results[0].AvgLatency
	}
	for _, r := range results {
		if !r.Stable {
			break
		}
		s.Add(r.Rate, r.AvgLatency)
		// Saturation: the conventional knee where latency exceeds 3x T0.
		if r.AvgLatency <= 3*zeroLoad {
			sat = r.Rate
		}
	}
	f.Note("zero-load latency T0 ~= %.1f cycles", zeroLoad)
	f.Note("saturation throughput theta ~= %.2f flits/cycle/node", sat)
	return c.writeFigure("fig01", f)
}

// fig02 plots runtime normalized to batch size as b grows, per m.
func fig02(c *ctx) error {
	f := stats.NewFigure("Fig 2: runtime normalized to batch size in batch model",
		"batch size (b)", "normalized runtime (T/b)")
	bs := []int{1, 10, 100, 1000, 10000}
	if c.full {
		bs = append(bs, 100000)
	}
	var specs []core.ExperimentSpec
	for _, m := range batchMs {
		for _, b := range bs {
			specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: core.Baseline(), B: b, M: m})
		}
	}
	res, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return err
	}
	for mi, m := range batchMs {
		s := f.AddSeries(fmt.Sprintf("m=%d", m))
		for bi, b := range bs {
			s.Add(float64(b), float64(res[mi*len(bs)+bi].Batch.Runtime)/float64(b))
		}
	}
	f.Note("normalized runtime saturates as b grows; higher m overlaps more requests")
	return c.writeFigure("fig02", f)
}

// fig03 shows open-loop impact of router delay (a) and buffer depth (b).
func fig03(c *ctx) error {
	trLabels, trs := routerDelayParams(1, 2, 4)
	qLabels, qs := bufDepthParams(4, 8, 16, 32)
	return c.writePanels(
		sweepPanel("fig03a", "Fig 3a: impact of router delay in open-loop", trLabels, trs, sweepRates(0.5), core.OpenLoopOpts{}),
		sweepPanel("fig03b", "Fig 3b: impact of VC buffer depth in open-loop", qLabels, qs, sweepRates(0.5), core.OpenLoopOpts{}))
}

// fig04 shows the same two parameters in the batch model across m.
func fig04(c *ctx) error {
	cell := core.ExperimentSpec{Kind: "batch", B: c.scale(300, 1000)}
	trLabels, trs := routerDelayParams(1, 2, 4)
	qLabels, qs := bufDepthParams(4, 8, 16, 32)
	return c.writePanels(
		mGridPanel("fig04a", "Fig 4a: impact of router delay in batch model", trLabels, trs, batchMs, cell, 0), // T / T(tr=1, m=1)
		mGridPanel("fig04b", "Fig 4b: impact of buffer depth in batch model", qLabels, qs, batchMs, cell, 3))   // T / T(q=32, m=1) per the paper
}

// fig05 correlates open-loop and batch measurements for tr and q sweeps.
func fig05(c *ctx) error {
	b := c.scale(300, 1000)
	trLabels, trs := routerDelayParams(1, 2, 4)
	// The q sweep reaches down to q=2: with this router's short credit
	// round trip, buffers of 4+ flits only matter at saturation, so the
	// correlation signal lives in the small-buffer half of Table I's
	// {1..32} range.
	qLabels, qs := bufDepthParams(16, 8, 4, 2)
	grid := slices.Concat(openBatchGrid(batchMs, trs, b), openBatchGrid(batchMs, qs, b))
	// Buffer depth is a throughput parameter on this router: the
	// latency-domain scatter inverts because small-q batch runs
	// self-throttle below their saturation (see EXPERIMENTS.md), so also
	// report the throughput-domain correlation: batch achieved throughput
	// vs open-loop capacity across q.
	var supplement []core.ExperimentSpec
	for _, p := range qs {
		supplement = append(supplement, core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: 16},
			openLoopSpec(p, 0.9, core.OpenLoopOpts{}))
	}
	batch, open, supp, err := c.runOpenBatch(grid, core.OpenLoopOpts{}, supplement...)
	if err != nil {
		return err
	}

	write := func(name, param string, labels []string, batch, open []*core.Result) error {
		corr, err := core.CorrelateOpenBatch(batchMs, labels, batch, open, false)
		if err != nil {
			return err
		}
		f := scatterFigure(
			fmt.Sprintf("Fig 5%s: open-loop vs batch correlation (%s sweep)", name, param),
			"open-loop normalized avg latency", "batch model normalized runtime", corr)
		f.Note("correlation coefficient (all m) = %.4f +/- %.4f (rank %.4f)", corr.Coefficient, corr.CI95, corr.Rank)
		// The paper notes poor correlation near saturation (m=16, 32).
		low := 4 * len(labels) // m in {1, 2, 4, 8}
		corrLow, err := core.CorrelateOpenBatch(batchMs[:4], labels, batch[:low], open[:low], false)
		if err != nil {
			return err
		}
		f.Note("correlation coefficient (m<=8) = %.4f +/- %.4f (paper: 0.9953 for tr, 0.9935 for q)", corrLow.Coefficient, corrLow.CI95)
		return c.writeFigure("fig05"+name, f)
	}
	nt := len(batchMs) * len(trs)
	if err := write("a", "router delay", trLabels, batch[:nt], open[:nt]); err != nil {
		return err
	}
	if err := write("b", "buffer depth", qLabels, batch[nt:], open[nt:]); err != nil {
		return err
	}

	extra := stats.NewFigure("Fig 5b (supplement): throughput-domain correlation across buffer depths",
		"open-loop capacity (flits/cycle/node)", "batch achieved throughput (m=16)")
	s := extra.AddSeries("q sweep")
	var batchTheta, olCap []float64
	for i := range qs {
		batchTheta = append(batchTheta, supp[2*i].Batch.Throughput)
		olCap = append(olCap, supp[2*i+1].OpenLoop.Accepted)
		s.Add(olCap[i], batchTheta[i])
	}
	r, err := stats.Pearson(olCap, batchTheta)
	if err != nil {
		return err
	}
	extra.Note("throughput correlation coefficient = %.4f", r)
	return c.writeFigure("fig05b_throughput", extra)
}

// topologyParams returns the three Fig 6 topologies on 64 nodes.
func topologyParams() ([]string, []core.NetworkParams) {
	return baselineVariants([]string{"mesh8x8", "torus8x8", "ring64"},
		func(topo string) string { return strings.TrimRight(topo, "0123456789x") }, // mesh8x8 -> mesh
		func(p *core.NetworkParams, topo string) { p.Topology = topo })
}

// fig06 compares topologies in open-loop (a) and batch model (b).
func fig06(c *ctx) error {
	names, topos := topologyParams()
	return c.writePanels(
		sweepPanel("fig06a", "Fig 6a: impact of topology in open-loop (uniform random)", names, topos, sweepRates(0.7), core.OpenLoopOpts{}),
		mGridPanel("fig06b", "Fig 6b: impact of topology in batch model", names, topos, batchMs,
			core.ExperimentSpec{Kind: "batch", B: c.scale(300, 1000)}, 0)) // T / T(mesh, m=1)
}

// fig07 renders the per-node runtime maps of mesh vs torus at m=1.
func fig07(c *ctx) error {
	b := c.scale(300, 1000)
	_, topos := topologyParams()
	runs, err := c.runs.RunAll(context.Background(), []core.ExperimentSpec{ // mesh, torus
		{Kind: "batch", Network: topos[0], B: b, M: 1}, {Kind: "batch", Network: topos[1], B: b, M: 1}})
	if err != nil {
		return err
	}
	var out strings.Builder
	out.WriteString("# Fig 7: per-node runtime under mesh and torus (batch model, m=1)\n")
	out.WriteString("# Values are node finish times normalized to the slowest node.\n")
	for i, r := range runs {
		res, topo := r.Batch, topos[i].Topology
		hm := stats.NewHeatmap(8, 8)
		maxT := float64(max(slices.Max(res.NodeFinish), 1))
		for i, t := range res.NodeFinish {
			hm.Set(i/8, i%8, float64(t)/maxT)
		}
		minNorm, maxNorm := float64(slices.Min(res.NodeFinish))/maxT, float64(slices.Max(res.NodeFinish))/maxT
		fmt.Fprintf(&out, "\n## %s (normalized finish time spread: %.3f .. %.3f)\n", topo, minNorm, maxNorm)
		out.WriteString(hm.String())
		out.WriteString("\nCSV:\n")
		out.WriteString(hm.CSV())
	}
	out.WriteString("\n# Expectation: mesh center nodes finish much earlier than edge nodes;\n")
	out.WriteString("# the edge-symmetric torus is nearly uniform (paper Fig 7).\n")
	return c.writeFile("fig07.txt", out.String())
}

// fig08 correlates topologies using worst-case open-loop latency.
func fig08(c *ctx) error {
	names, topos := topologyParams()
	ms := []int{1, 2, 4, 8}
	batch, open, _, err := c.runOpenBatch(openBatchGrid(ms, topos, c.scale(300, 1000)), core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	corr, err := core.CorrelateOpenBatch(ms, names, batch, open, true)
	if err != nil {
		return err
	}
	f := scatterFigure("Fig 8: open-loop (worst-case latency) vs batch across topologies",
		"open-loop normalized worst-case latency", "batch model normalized runtime", corr)
	f.Note("correlation coefficient = %.4f +/- %.4f, rank %.4f (paper: 0.999 using worst-case latency)", corr.Coefficient, corr.CI95, corr.Rank)
	avg, err := core.CorrelateOpenBatch(ms, names, batch, open, false)
	if err != nil {
		return err
	}
	f.Note("with average latency instead: %.4f (mesh/torus inversion at low m)", avg.Coefficient)
	return c.writeFigure("fig08", f)
}

// routingPanels are the two traffic patterns Figs 9 and 10 compare the
// routing algorithms under, in panel order.
var routingPanels = []struct{ suffix, pattern string }{{"a", "uniform"}, {"b", "transpose"}}

// routingParams returns the four Table I routing algorithms with 4 VCs.
func routingParams(pattern string) ([]string, []core.NetworkParams) {
	return baselineVariants([]string{"dor", "ma", "romm", "val"}, strings.ToUpper,
		func(p *core.NetworkParams, alg string) { p.Routing, p.VCs, p.Pattern = alg, 4, pattern })
}

// fig09 compares routing algorithms in open-loop under uniform and
// transpose traffic.
func fig09(c *ctx) error {
	var panels []panel
	for _, rp := range routingPanels {
		labels, variants := routingParams(rp.pattern)
		panels = append(panels, sweepPanel("fig09"+rp.suffix,
			fmt.Sprintf("Fig 9%s: routing algorithms in open-loop (%s)", rp.suffix, rp.pattern),
			labels, variants, sweepRates(0.5), core.OpenLoopOpts{}))
	}
	return c.writePanels(panels...)
}

// fig10 compares routing algorithms in the batch model.
func fig10(c *ctx) error {
	cell := core.ExperimentSpec{Kind: "batch", B: c.scale(300, 1000)}
	var panels []panel
	for _, rp := range routingPanels {
		labels, variants := routingParams(rp.pattern)
		panels = append(panels, mGridPanel("fig10"+rp.suffix,
			fmt.Sprintf("Fig 10%s: routing algorithms in batch model (%s)", rp.suffix, rp.pattern),
			labels, variants, batchMs, cell, 0)) // T / T(dor, m=1)
	}
	return c.writePanels(panels...)
}

// fig11 produces the node distributions of open-loop latency and batch
// runtime for DOR vs VAL under transpose.
func fig11(c *ctx) error {
	b := c.scale(300, 1000)
	algs := []string{"dor", "val"}
	_, variants := routingParams("transpose")
	var specs []core.ExperimentSpec
	for _, p := range []core.NetworkParams{variants[0], variants[3]} { // DOR, VAL
		specs = append(specs, openLoopSpec(p, 0.05, core.OpenLoopOpts{}),
			core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: 1})
	}
	runs, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return err
	}
	var out strings.Builder
	out.WriteString("# Fig 11: node distributions under transpose traffic, DOR vs VAL\n")

	for i, alg := range algs {
		ol := runs[2*i].OpenLoop
		h := stats.NewHistogram(0, 40, 8)
		h.AddAll(ol.PerNodeAvg)
		fmt.Fprintf(&out, "\n## open-loop per-node average latency, %s (avg %.1f, worst %.1f)\n",
			strings.ToUpper(alg), ol.AvgLatency, ol.WorstLatency)
		out.WriteString(h.String())
	}
	var worst, avg [2]float64
	for i, alg := range algs {
		nodes := runs[2*i+1].Batch.NodeFinish
		finishes := make([]float64, len(nodes))
		for j, t := range nodes {
			finishes[j] = float64(t)
		}
		avg[i], worst[i] = stats.Mean(finishes), stats.Max(finishes)
		h := stats.NewHistogram(0, worst[i]*1.05, 8)
		h.AddAll(finishes)
		fmt.Fprintf(&out, "\n## batch-model per-node runtime, %s (m=1; avg %.0f, worst %.0f)\n",
			strings.ToUpper(alg), avg[i], worst[i])
		out.WriteString(h.String())
	}
	fmt.Fprintf(&out, "\n# DOR avg runtime is %.0f%% below VAL, but worst-case runtimes differ by only %.1f%%\n",
		100*(1-avg[0]/avg[1]), 100*(worst[1]/worst[0]-1))
	out.WriteString("# (paper: 44% average difference, identical worst case - corner transpose pairs\n")
	out.WriteString("# route minimally under both algorithms).\n")
	return c.writeFile("fig11.txt", out.String())
}

// fig12 renders example DOR and VAL routes for a corner transpose pair.
func fig12(c *ctx) error {
	var out strings.Builder
	out.WriteString("# Fig 12: example routing of the corner transpose pair on an 8x8 mesh\n")
	out.WriteString("# S = source (7,0), D = destination (0,7), I = VAL intermediate, * = path\n")

	// DOR path from node 7 (x=7,y=0) to node 56 (x=0,y=7).
	render := func(title string, waypoints [][2]int) {
		grid := [8][8]byte{}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				grid[y][x] = '.'
			}
		}
		mark := func(x, y int, ch byte) {
			if grid[y][x] == '.' || ch != '*' {
				grid[y][x] = ch
			}
		}
		// Walk DOR (x first, then y) between consecutive waypoints.
		for i := 0; i+1 < len(waypoints); i++ {
			x, y := waypoints[i][0], waypoints[i][1]
			tx, ty := waypoints[i+1][0], waypoints[i+1][1]
			for x != tx {
				mark(x, y, '*')
				if tx > x {
					x++
				} else {
					x--
				}
			}
			for y != ty {
				mark(x, y, '*')
				if ty > y {
					y++
				} else {
					y--
				}
			}
		}
		s, d := waypoints[0], waypoints[len(waypoints)-1]
		grid[s[1]][s[0]] = 'S'
		grid[d[1]][d[0]] = 'D'
		if len(waypoints) == 3 {
			m := waypoints[1]
			grid[m[1]][m[0]] = 'I'
		}
		fmt.Fprintf(&out, "\n## %s\n", title)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				out.WriteByte(grid[y][x])
				out.WriteByte(' ')
			}
			out.WriteByte('\n')
		}
	}
	render("DOR: (7,0) -> (0,7), 14 hops", [][2]int{{7, 0}, {0, 7}})
	render("VAL: (7,0) -> (3,4) -> (0,7), still 14 hops (minimal)", [][2]int{{7, 0}, {3, 4}, {0, 7}})
	out.WriteString("\n# For corner transpose pairs, any VAL intermediate inside the minimal\n")
	out.WriteString("# quadrant keeps the route minimal: worst-case zero-load latency is\n")
	out.WriteString("# identical for DOR and VAL, which is why the batch model sees only a\n")
	out.WriteString("# tiny runtime difference at m=1 (Fig 10b).\n")
	return c.writeFile("fig12.txt", out.String())
}
