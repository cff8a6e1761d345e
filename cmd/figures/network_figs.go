package main

// Network-only figures: the open-loop and batch-model experiments of
// §II-B and §III (Figs 1-12).

import (
	"fmt"
	"strings"

	"noceval/internal/core"
	"noceval/internal/par"
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
	p := core.Baseline()
	f := stats.NewFigure("Fig 1: latency vs offered traffic (8x8 mesh, DOR, uniform)",
		"offered load (flits/cycle/node)", "average latency (cycles)")
	s := f.AddSeries("avg latency")
	results, err := core.OpenLoopSweepWith(p, sweepRates(0.5), core.OpenLoopOpts{})
	if err != nil {
		return err
	}
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
	vals := make([][]float64, len(batchMs))
	for i := range vals {
		vals[i] = make([]float64, len(bs))
	}
	err := par.Parallel(len(batchMs)*len(bs), 0, func(idx int) error {
		mi, bi := idx/len(bs), idx%len(bs)
		res, err := core.Batch(core.Baseline(), core.BatchParams{B: bs[bi], M: batchMs[mi]})
		if err != nil {
			return err
		}
		vals[mi][bi] = float64(res.Runtime) / float64(bs[bi])
		return nil
	})
	if err != nil {
		return err
	}
	for mi, m := range batchMs {
		s := f.AddSeries(fmt.Sprintf("m=%d", m))
		for bi, b := range bs {
			s.Add(float64(b), vals[mi][bi])
		}
	}
	f.Note("normalized runtime saturates as b grows; higher m overlaps more requests")
	return c.writeFigure("fig02", f)
}

// fig03 shows open-loop impact of router delay (a) and buffer depth (b).
func fig03(c *ctx) error {
	labels, vary := routerDelayParams(1, 2, 4)
	fa, err := sweepFigure("Fig 3a: impact of router delay in open-loop", labels, vary, sweepRates(0.5), core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	if err := c.writeFigure("fig03a", fa); err != nil {
		return err
	}
	labels, vary = bufDepthParams(4, 8, 16, 32)
	fb, err := sweepFigure("Fig 3b: impact of VC buffer depth in open-loop", labels, vary, sweepRates(0.5), core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	return c.writeFigure("fig03b", fb)
}

// fig04 shows the same two parameters in the batch model across m.
func fig04(c *ctx) error {
	bp := core.BatchParams{B: c.scale(300, 1000)}
	labels, vary := routerDelayParams(1, 2, 4)
	fa, err := gridFigure("Fig 4a: impact of router delay in batch model", labels, vary, batchMs, bp, 0) // T / T(tr=1, m=1)
	if err != nil {
		return err
	}
	if err := c.writeFigure("fig04a", fa); err != nil {
		return err
	}
	labels, vary = bufDepthParams(4, 8, 16, 32)
	fb, err := gridFigure("Fig 4b: impact of buffer depth in batch model", labels, vary, batchMs, bp, 3) // T / T(q=32, m=1) per the paper
	if err != nil {
		return err
	}
	return c.writeFigure("fig04b", fb)
}

// fig05 correlates open-loop and batch measurements for tr and q sweeps.
func fig05(c *ctx) error {
	b := c.scale(300, 1000)
	write := func(name, param string, labels []string, vary func(int) core.NetworkParams) error {
		corr, err := core.CorrelateOpenBatch(batchMs, labels, vary, b, false, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		f := scatterFigure(
			fmt.Sprintf("Fig 5%s: open-loop vs batch correlation (%s sweep)", name, param),
			"open-loop normalized avg latency", "batch model normalized runtime", corr)
		f.Note("correlation coefficient (all m) = %.4f +/- %.4f (rank %.4f)", corr.Coefficient, corr.CI95, corr.Rank)
		// The paper notes poor correlation near saturation (m=16, 32).
		lowM := []int{1, 2, 4, 8}
		corrLow, err := core.CorrelateOpenBatch(lowM, labels, vary, b, false, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		f.Note("correlation coefficient (m<=8) = %.4f +/- %.4f (paper: 0.9953 for tr, 0.9935 for q)", corrLow.Coefficient, corrLow.CI95)
		return c.writeFigure("fig05"+name, f)
	}
	trLabels, trVary := routerDelayParams(1, 2, 4)
	if err := write("a", "router delay", trLabels, trVary); err != nil {
		return err
	}
	// The q sweep reaches down to q=2: with this router's short credit
	// round trip, buffers of 4+ flits only matter at saturation, so the
	// correlation signal lives in the small-buffer half of Table I's
	// {1..32} range.
	qVals := []int{16, 8, 4, 2}
	qLabels, qVary := bufDepthParams(qVals...)
	if err := write("b", "buffer depth", qLabels, qVary); err != nil {
		return err
	}
	// Buffer depth is a throughput parameter on this router: the
	// latency-domain scatter above inverts because small-q batch runs
	// self-throttle below their saturation (see EXPERIMENTS.md), so also
	// report the throughput-domain correlation: batch achieved throughput
	// vs open-loop capacity across q.
	var batchTheta, olCap []float64
	for i := range qVals {
		p := qVary(i)
		res, err := core.Batch(p, core.BatchParams{B: b, M: 16})
		if err != nil {
			return err
		}
		over, err := core.OpenLoopWith(p, 0.9, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		batchTheta = append(batchTheta, res.Throughput)
		olCap = append(olCap, over.Accepted)
	}
	r, err := stats.Pearson(olCap, batchTheta)
	if err != nil {
		return err
	}
	extra := stats.NewFigure("Fig 5b (supplement): throughput-domain correlation across buffer depths",
		"open-loop capacity (flits/cycle/node)", "batch achieved throughput (m=16)")
	s := extra.AddSeries("q sweep")
	for i := range qVals {
		s.Add(olCap[i], batchTheta[i])
	}
	extra.Note("throughput correlation coefficient = %.4f", r)
	return c.writeFigure("fig05b_throughput", extra)
}

// topologyParams returns the three Fig 6 topologies on 64 nodes.
func topologyParams() ([]string, func(int) core.NetworkParams) {
	names := []string{"mesh", "torus", "ring"}
	topos := []string{"mesh8x8", "torus8x8", "ring64"}
	return names, func(i int) core.NetworkParams {
		p := core.Baseline()
		p.Topology = topos[i]
		return p
	}
}

// fig06 compares topologies in open-loop (a) and batch model (b).
func fig06(c *ctx) error {
	names, vary := topologyParams()
	fa, err := sweepFigure("Fig 6a: impact of topology in open-loop (uniform random)", names, vary, sweepRates(0.7), core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	if err := c.writeFigure("fig06a", fa); err != nil {
		return err
	}
	fb, err := gridFigure("Fig 6b: impact of topology in batch model", names, vary, batchMs,
		core.BatchParams{B: c.scale(300, 1000)}, 0) // T / T(mesh, m=1)
	if err != nil {
		return err
	}
	return c.writeFigure("fig06b", fb)
}

// fig07 renders the per-node runtime maps of mesh vs torus at m=1.
func fig07(c *ctx) error {
	b := c.scale(300, 1000)
	var out strings.Builder
	out.WriteString("# Fig 7: per-node runtime under mesh and torus (batch model, m=1)\n")
	out.WriteString("# Values are node finish times normalized to the slowest node.\n")
	for _, topo := range []string{"mesh8x8", "torus8x8"} {
		p := core.Baseline()
		p.Topology = topo
		res, err := core.Batch(p, core.BatchParams{B: b, M: 1})
		if err != nil {
			return err
		}
		hm := stats.NewHeatmap(8, 8)
		var maxT int64 = 1
		for _, t := range res.NodeFinish {
			if t > maxT {
				maxT = t
			}
		}
		minNorm, maxNorm := 2.0, 0.0
		for i, t := range res.NodeFinish {
			v := float64(t) / float64(maxT)
			hm.Set(i/8, i%8, v)
			if v < minNorm {
				minNorm = v
			}
			if v > maxNorm {
				maxNorm = v
			}
		}
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
	b := c.scale(300, 1000)
	names, vary := topologyParams()
	ms := []int{1, 2, 4, 8}
	corr, err := core.CorrelateOpenBatch(ms, names, vary, b, true, core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	f := scatterFigure("Fig 8: open-loop (worst-case latency) vs batch across topologies",
		"open-loop normalized worst-case latency", "batch model normalized runtime", corr)
	f.Note("correlation coefficient = %.4f +/- %.4f, rank %.4f (paper: 0.999 using worst-case latency)", corr.Coefficient, corr.CI95, corr.Rank)
	avg, err := core.CorrelateOpenBatch(ms, names, vary, b, false, core.OpenLoopOpts{})
	if err == nil {
		f.Note("with average latency instead: %.4f (mesh/torus inversion at low m)", avg.Coefficient)
	}
	return c.writeFigure("fig08", f)
}

// routingPanels are the two traffic patterns Figs 9 and 10 compare the
// routing algorithms under, in panel order.
var routingPanels = []struct{ suffix, pattern string }{{"a", "uniform"}, {"b", "transpose"}}

// routingParams returns the four Table I routing algorithms with 4 VCs.
func routingParams(pattern string) ([]string, func(int) core.NetworkParams) {
	algs := []string{"dor", "ma", "romm", "val"}
	labels := make([]string, len(algs))
	for i, alg := range algs {
		labels[i] = strings.ToUpper(alg)
	}
	return labels, func(i int) core.NetworkParams {
		p := core.Baseline()
		p.Routing = algs[i]
		p.VCs = 4
		p.Pattern = pattern
		return p
	}
}

// fig09 compares routing algorithms in open-loop under uniform and
// transpose traffic.
func fig09(c *ctx) error {
	for _, panel := range routingPanels {
		labels, vary := routingParams(panel.pattern)
		f, err := sweepFigure(
			fmt.Sprintf("Fig 9%s: routing algorithms in open-loop (%s)", panel.suffix, panel.pattern),
			labels, vary, sweepRates(0.5), core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		if err := c.writeFigure("fig09"+panel.suffix, f); err != nil {
			return err
		}
	}
	return nil
}

// fig10 compares routing algorithms in the batch model.
func fig10(c *ctx) error {
	bp := core.BatchParams{B: c.scale(300, 1000)}
	for _, panel := range routingPanels {
		labels, vary := routingParams(panel.pattern)
		f, err := gridFigure(
			fmt.Sprintf("Fig 10%s: routing algorithms in batch model (%s)", panel.suffix, panel.pattern),
			labels, vary, batchMs, bp, 0) // T / T(dor, m=1)
		if err != nil {
			return err
		}
		if err := c.writeFigure("fig10"+panel.suffix, f); err != nil {
			return err
		}
	}
	return nil
}

// fig11 produces the node distributions of open-loop latency and batch
// runtime for DOR vs VAL under transpose.
func fig11(c *ctx) error {
	b := c.scale(300, 1000)
	var out strings.Builder
	out.WriteString("# Fig 11: node distributions under transpose traffic, DOR vs VAL\n")

	for _, alg := range []string{"dor", "val"} {
		p := core.Baseline()
		p.Routing = alg
		p.VCs = 4
		p.Pattern = "transpose"
		ol, err := core.OpenLoopWith(p, 0.05, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		h := stats.NewHistogram(0, 40, 8)
		h.AddAll(ol.PerNodeAvg)
		fmt.Fprintf(&out, "\n## open-loop per-node average latency, %s (avg %.1f, worst %.1f)\n",
			strings.ToUpper(alg), ol.AvgLatency, ol.WorstLatency)
		out.WriteString(h.String())
	}
	var worst [2]float64
	var avg [2]float64
	for i, alg := range []string{"dor", "val"} {
		p := core.Baseline()
		p.Routing = alg
		p.VCs = 4
		p.Pattern = "transpose"
		res, err := core.Batch(p, core.BatchParams{B: b, M: 1})
		if err != nil {
			return err
		}
		finishes := make([]float64, len(res.NodeFinish))
		var sum float64
		for j, t := range res.NodeFinish {
			finishes[j] = float64(t)
			sum += float64(t)
			if float64(t) > worst[i] {
				worst[i] = float64(t)
			}
		}
		avg[i] = sum / float64(len(finishes))
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
