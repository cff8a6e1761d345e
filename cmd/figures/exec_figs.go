package main

// Execution-driven figures and tables: the batch-model validation of §IV
// and the kernel-traffic study of §V (Figs 13-22, Tables I-IV). Figs 13
// and 21 call core.Exec for the traffic matrix and the timeline, which no
// spec field asks for; the rest list exec, characterize and batch specs,
// so Figs 14/15, 18/19 and 20/22 and Tables III/IV share their runs
// within one invocation.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"noceval/internal/core"
	"noceval/internal/stats"
	"noceval/internal/workload"
)

var trSweep = []int64{1, 2, 4, 8}

func init() {
	register("fig13", fig13)
	register("fig14", fig14)
	register("fig15", fig15)
	register("fig16", fig16)
	register("fig17", fig17)
	register("fig18", fig18)
	register("fig19", fig19)
	register("fig20", fig20)
	register("fig21", fig21)
	register("fig22", fig22)
	register("table1", table1)
	register("table2", table2)
	register("table3", table3)
	register("table4", table4)
}

// benchmarks in the paper's Fig 14 order.
var benchOrder = []string{"blackscholes", "lu", "canneal", "fft", "barnes"}

// fig13 contrasts lu's application-level communication pattern with the
// traffic actually injected into the network.
func fig13(c *ctx) error {
	res, err := core.Exec(core.Table2Network(1), core.ExecParams{
		Benchmark:     "lu",
		CollectMatrix: true,
		Seed:          7,
	})
	if err != nil {
		return err
	}
	var out strings.Builder
	out.WriteString("# Fig 13: lu communication pattern (16 tiles)\n")
	out.WriteString("# (a) application communication: user request messages only\n")
	out.WriteString(res.AppMatrix.Normalized().String())
	out.WriteString("\n# (b) actual injected traffic: all messages (replies, coherence, kernel)\n")
	out.WriteString(res.Matrix.Normalized().String())
	out.WriteString("\n# CSV (a):\n")
	out.WriteString(res.AppMatrix.CSV())
	out.WriteString("# CSV (b):\n")
	out.WriteString(res.Matrix.CSV())
	out.WriteString("# The actual traffic is far more uniform than the logical pattern,\n")
	out.WriteString("# motivating uniform-random traffic in the batch model comparison (SIV-A).\n")
	return c.writeFile("fig13.txt", out.String())
}

// benchGrid lists cell(i), the spec of benchOrder[i], on the Table II
// network at every delay of trSweep, benchmark-major as
// core.CorrelateExecBatch reads it.
func benchGrid(cell func(i int) core.ExperimentSpec) []core.ExperimentSpec {
	var specs []core.ExperimentSpec
	for i := range benchOrder {
		for _, tr := range trSweep {
			s := cell(i)
			s.Network = core.Table2Network(tr)
			specs = append(specs, s)
		}
	}
	return specs
}

// execGrid is the benchGrid of exec runs at clock, with the timer on or
// off. Figs 14/15/18/19 run at 75 MHz without the timer, where the clock
// changes no number but keeps their cache keys.
func execGrid(clock workload.Clock, timer bool) []core.ExperimentSpec {
	return benchGrid(func(i int) core.ExperimentSpec {
		return core.ExperimentSpec{Kind: "exec", Benchmark: benchOrder[i], Clock: clock.SpecName(), Timer: timer, Seed: 7}
	})
}

// characterizeSpecs lists the characterization of every benchmark at
// clock, in benchOrder.
func characterizeSpecs(clock workload.Clock) []core.ExperimentSpec {
	specs := make([]core.ExperimentSpec, len(benchOrder))
	for i, b := range benchOrder {
		specs[i] = core.ExperimentSpec{Kind: "characterize", Network: core.Baseline(), Benchmark: b, Clock: clock.SpecName(), Seed: 7}
	}
	return specs
}

// versusExec correlates the exec runs of execGrid(clock, timer) with the
// batch model under each variant. BA is one curve for every benchmark;
// an enhanced variant models each benchmark by its characterization at
// modelClock, so its batch runs are a second stage after the
// characterizations.
func (c *ctx) versusExec(clock, modelClock workload.Clock, timer bool, variants ...core.Variant) ([]core.Correlation, error) {
	exec := execGrid(clock, timer)
	var chars []core.ExperimentSpec
	if slices.ContainsFunc(variants, func(v core.Variant) bool { return v != core.BA }) {
		chars = characterizeSpecs(modelClock)
	}
	res, err := c.runs.RunAll(context.Background(), slices.Concat(exec, chars))
	if err != nil {
		return nil, err
	}
	b := c.scale(300, 1000)
	var grid []core.ExperimentSpec
	for _, v := range variants {
		grid = append(grid, benchGrid(func(i int) core.ExperimentSpec {
			if v == core.BA {
				return core.ExperimentSpec{Kind: "batch", B: b, M: 1}
			}
			return res[len(exec)+i].Model.BatchSpec(b, 1, v)
		})...)
	}
	bres, err := c.runs.RunAll(context.Background(), grid)
	if err != nil {
		return nil, err
	}
	if _, err := batches(grid, bres); err != nil {
		return nil, err
	}
	corrs := make([]core.Correlation, len(variants))
	n := len(exec)
	for i := range variants {
		corrs[i], err = core.CorrelateExecBatch(benchOrder, trSweep, res[:n], bres[i*n:(i+1)*n])
		if err != nil {
			return nil, err
		}
	}
	return corrs, nil
}

// fig14 compares normalized runtimes of the execution-driven system and
// the baseline batch model as tr varies.
func fig14(c *ctx) error {
	corrs, err := c.versusExec(workload.Clock75MHz, workload.Clock75MHz, false, core.BA)
	if err != nil {
		return err
	}
	pairs := corrs[0].Pairs // benchmark-major: X exec, Y batch
	f := stats.NewFigure("Fig 14: normalized runtime of execution-driven system and batch model (BA) vs tr",
		"router delay (tr)", "runtime normalized to tr=1")
	for bi, b := range benchOrder {
		s := f.AddSeries(b)
		for i, tr := range trSweep {
			s.Add(float64(tr), pairs[bi*len(trSweep)+i].X)
		}
	}
	s := f.AddSeries("BA")
	for i, tr := range trSweep {
		s.Add(float64(tr), pairs[i].Y)
	}
	f.Note("each benchmark responds differently to tr; BA cannot distinguish them (paper SIV-B)")
	return c.writeFigure("fig14", f)
}

// fig15 computes the baseline batch-vs-execution correlation.
func fig15(c *ctx) error {
	corrs, err := c.versusExec(workload.Clock75MHz, workload.Clock75MHz, false, core.BA)
	if err != nil {
		return err
	}
	corr := corrs[0]
	f := scatterFigure("Fig 15: correlation between execution-driven and baseline batch model",
		"GEMS-substitute normalized runtime", "batch model normalized runtime", corr)
	f.Note("correlation coefficient = %.4f +/- %.4f, rank %.4f (paper: 0.829)", corr.Coefficient, corr.CI95, corr.Rank)
	return c.writeFigure("fig15", f)
}

// fig16 evaluates the NAR-enhanced injection model. Its x axis is the
// NAR, not m, so it lists the [tr][NAR] grid itself and shares only the
// grid panel with the m-sweep figures.
func fig16(c *ctx) error {
	b := c.scale(300, 1000)
	nars := []float64{0.04, 0.12, 0.2, 0.28, 0.36, 1}
	labels, trs := routerDelayParams(1, 2, 4)
	var panels []panel
	for _, m := range []int{1, 4, 16} {
		pn := gridPanel(fmt.Sprintf("fig16m%d", m), fmt.Sprintf("Fig 16 (m=%d): batch model with enhanced injection model", m),
			"network access rate (NAR)", labels, trs, nars, func(p core.NetworkParams, nar float64) core.ExperimentSpec {
				return core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: m, NAR: nar}
			}, 0, len(nars)-1) // T / T(tr=1, NAR=1)
		pn.note = "low NAR hides router-delay differences even at large m (paper SIV-C1)"
		panels = append(panels, pn)
	}
	return c.writePanels(panels...)
}

// fig17 evaluates the reply-latency models.
func fig17(c *ctx) error {
	b := c.scale(300, 1000)
	models := []struct {
		suffix string
		title  string
		reply  *core.ReplySpec
	}{
		{"a", "memory latency = 20", &core.ReplySpec{Type: "fixed", Latency: 20}},
		{"b", "memory latency = 50", &core.ReplySpec{Type: "fixed", Latency: 50}},
		{"c", "memory latency = 20 + 0.1*300", &core.ReplySpec{Type: "probabilistic", L2: 20, Memory: 300, MissRate: 0.1}},
	}
	labels, trs := routerDelayParams(1, 2, 4)
	var panels []panel
	for _, mconf := range models {
		pn := mGridPanel("fig17"+mconf.suffix,
			fmt.Sprintf("Fig 17%s: batch model with enhanced reply model (%s)", mconf.suffix, mconf.title),
			labels, trs, batchMs, core.ExperimentSpec{Kind: "batch", B: b, Reply: mconf.reply}, 0) // T / T(tr=1, m=1)
		pn.note = "memory latency dominates remote access: router delay impact shrinks (SIV-C2)"
		panels = append(panels, pn)
	}
	return c.writePanels(panels...)
}

// enhancedVariants are the batch models Figs 18 and 19 compare, built
// from the 3 GHz characterizations without timer traffic.
var enhancedVariants = []core.Variant{core.BAInj, core.BARe, core.BAInjRe}

// fig18 compares execution-driven runtimes with the enhanced batch models.
func fig18(c *ctx) error {
	corrs, err := c.versusExec(workload.Clock75MHz, workload.Clock3GHz, false, enhancedVariants...)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 18: normalized runtime, execution-driven vs enhanced batch models",
		"benchmark", "model", "tr=1", "tr=2", "tr=4", "tr=8")
	nt := len(trSweep)
	for bi, bench := range benchOrder {
		row := func(label string, x func(i int) float64) {
			cells := []string{bench, label}
			for i := range trSweep {
				cells = append(cells, fmt.Sprintf("%.3f", x(bi*nt+i)))
			}
			t.AddRow(cells...)
		}
		row("exec", func(i int) float64 { return corrs[0].Pairs[i].X })
		for vi, v := range enhancedVariants {
			row(v.String(), func(i int) float64 { return corrs[vi].Pairs[i].Y })
		}
	}
	return c.writeTable("fig18", t)
}

// fig19 computes the enhanced-model correlations.
func fig19(c *ctx) error {
	corrs, err := c.versusExec(workload.Clock75MHz, workload.Clock3GHz, false, enhancedVariants...)
	if err != nil {
		return err
	}
	f := stats.NewFigure("Fig 19: correlation between execution-driven and enhanced batch models",
		"GEMS-substitute normalized runtime", "batch model normalized runtime")
	for vi, v := range enhancedVariants {
		corr := corrs[vi]
		s := f.AddSeries(v.String())
		for _, pt := range corr.Pairs {
			s.Add(pt.X, pt.Y)
		}
		f.Note("%s correlation coefficient = %.4f +/- %.4f (rank %.4f)", v, corr.Coefficient, corr.CI95, corr.Rank)
	}
	f.Note("paper: enhanced models beat BA (0.829) but BA_inj+re alone underperforms until OS traffic is modelled (SIV-D)")
	return c.writeFigure("fig19", f)
}

// clocks are the two core clocks of §V, in the order Figs 20-22 plot them.
var clocks = []workload.Clock{workload.Clock75MHz, workload.Clock3GHz}

// fig20 measures the kernel/user injection-rate split across clocks.
func fig20(c *ctx) error {
	f := stats.NewFigure("Fig 20: network injection rate split user/kernel (timer enabled)",
		"configuration index", "flits/cycle/node")
	t := stats.NewTable("Fig 20: injection rate of benchmarks as router delay varies",
		"clock", "benchmark", "tr", "user (flits/cycle/node)", "kernel", "kernel share", "timer interrupts")
	var specs []core.ExperimentSpec
	for _, clock := range clocks {
		specs = append(specs, execGrid(clock, true)...)
	}
	runs, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return err
	}
	idx := 0
	for _, clock := range clocks {
		su := f.AddSeries("user " + clock.String())
		sk := f.AddSeries("kernel " + clock.String())
		for _, bench := range benchOrder {
			for _, tr := range trSweep {
				res := runs[idx].Exec
				su.Add(float64(idx), res.UserNAR)
				sk.Add(float64(idx), res.KernelNAR)
				t.AddRow(clock.String(), bench, fmt.Sprintf("%d", tr),
					fmt.Sprintf("%.4f", res.UserNAR), fmt.Sprintf("%.4f", res.KernelNAR),
					fmt.Sprintf("%.2f", float64(res.KernelFlits)/float64(res.TotalFlits)),
					fmt.Sprintf("%d", res.TimerInterrupts))
				idx++
			}
		}
	}
	f.Note("kernel share is much larger at 75MHz: timer interval is wall-clock fixed (SV)")
	if err := c.writeFigure("fig20", f); err != nil {
		return err
	}
	return c.writeTable("fig20_table", t)
}

// fig21 records the injection-rate timeline of blackscholes at both clocks.
func fig21(c *ctx) error {
	for _, clock := range clocks {
		res, err := core.Exec(core.Table2Network(1), core.ExecParams{
			Benchmark:      "blackscholes",
			Clock:          clock,
			Timer:          true,
			SampleInterval: 1000,
			Seed:           7,
		})
		if err != nil {
			return err
		}
		f := stats.NewFigure(
			fmt.Sprintf("Fig 21 (%s): injection rate of blackscholes over time", clock),
			"time (cycles)", "flits/cycle (16 cores)")
		su := f.AddSeries("user")
		sk := f.AddSeries("kernel")
		for _, s := range res.Timeline {
			su.Add(float64(s.Cycle), s.UserRate*16/16) // total over 16 cores
			sk.Add(float64(s.Cycle), s.KernelRate)
		}
		f.Note("timer interrupts = %d; kernel bursts at start/end are thread create/join syscalls", res.TimerInterrupts)
		if err := c.writeFigure("fig21"+clock.String(), f); err != nil {
			return err
		}
	}
	return nil
}

// fig22 correlates the fully enhanced batch model with and without the OS
// model against timer-enabled execution-driven runs at both clocks.
func fig22(c *ctx) error {
	f := stats.NewFigure("Fig 22: correlation with/without OS modelling",
		"GEMS-substitute normalized runtime", "batch model normalized runtime")
	for _, clock := range clocks {
		corrs, err := c.versusExec(clock, clock, true, core.BAInjRe, core.BAInjReOS)
		if err != nil {
			return err
		}
		cw, co := corrs[0], corrs[1]
		s := f.AddSeries(clock.String() + " with OS model")
		for _, pt := range co.Pairs {
			s.Add(pt.X, pt.Y)
		}
		f.Note("%s: without OS model r = %.4f +/- %.4f, with OS model r = %.4f +/- %.4f", clock, cw.Coefficient, cw.CI95, co.Coefficient, co.CI95)
	}
	f.Note("paper: 3GHz 0.9541 -> 0.9724; 75MHz 0.7052 -> 0.9311")
	return c.writeFigure("fig22", f)
}

// table1 dumps the Table I network parameter space with baselines.
func table1(c *ctx) error {
	t := stats.NewTable("Table I: simulation parameters (bold = baseline)",
		"parameter", "values", "baseline")
	t.AddRow("topology", "8x8 2D mesh, 16x16 2D mesh, torus, ring", "8x8 2D mesh")
	t.AddRow("virtual channels", "2, 4", "2")
	t.AddRow("VC buffer size", "1, 2, 4, 8, 16, 32", "16")
	t.AddRow("router delay (cycles)", "1, 2, 4, 8", "1")
	t.AddRow("routing algorithm", "DOR, VAL, MA, ROMM", "DOR")
	t.AddRow("arbitration", "round robin, age-based", "round robin")
	t.AddRow("link delay", "1 cycle (2 on folded torus)", "1")
	t.AddRow("link bandwidth", "1 flit/cycle", "1 flit/cycle")
	t.AddRow("packet sizes", "1 flit, bimodal (1 and 4 flit)", "1 flit")
	t.AddRow("traffic patterns", "uniform, bit reversal, bit complement, transpose", "uniform")
	return c.writeTable("table1", t)
}

// table2 dumps the Table II CMP parameters used by the GEMS substitute.
func table2(c *ctx) error {
	t := stats.NewTable("Table II: execution-driven CMP parameters",
		"component", "configuration")
	t.AddRow("processor", "16 in-order cores, blocking loads, 8-entry store buffer")
	t.AddRow("L1 caches", "private, 32 KB 4-way, 64-byte lines, 2-cycle access")
	t.AddRow("L2 cache", "shared, 512 KB/tile (8 MB total), 10-cycle access, MSI directory")
	t.AddRow("memory", "300-cycle DRAM access")
	t.AddRow("network", "4-ary 2-cube mesh, 16-byte links, 1/2/4/8 router delay, 8 VCs, 4 buffers/VC, DOR")
	return c.writeTable("table2", t)
}

// table3 reproduces the NAR calculation per benchmark (3 GHz, no timer).
func table3(c *ctx) error {
	t := stats.NewTable("Table III: GEMS-substitute calculation of NAR",
		"benchmark", "ideal cycle count", "total flits", "NAR (req/cycle/node)", "L2 miss rate")
	res, err := c.runs.RunAll(context.Background(), characterizeSpecs(workload.Clock3GHz))
	if err != nil {
		return err
	}
	for _, r := range res {
		m := r.Model
		t.AddRow(m.Name,
			fmt.Sprintf("%d", m.IdealCycles),
			fmt.Sprintf("%d", m.TotalFlits),
			fmt.Sprintf("%.4f", m.NAR),
			fmt.Sprintf("%.3f", m.L2Miss))
	}
	return c.writeTable("table3", t)
}

// table4 reproduces the benchmark characteristics used by the OS model.
func table4(c *ctx) error {
	t := stats.NewTable("Table IV: characteristics of benchmarks (75 MHz, timer enabled)",
		"benchmark", "NAR user", "NAR OS", "L2 miss user", "L2 miss OS",
		"static kernel traffic", "timer period (cycles)", "timer batch")
	res, err := c.runs.RunAll(context.Background(), characterizeSpecs(workload.Clock75MHz))
	if err != nil {
		return err
	}
	for _, r := range res {
		m := r.Model
		t.AddRow(m.Name,
			fmt.Sprintf("%.4f", m.UserNAR),
			fmt.Sprintf("%.4f", m.KernelNAR),
			fmt.Sprintf("%.3f", m.L2Miss),
			fmt.Sprintf("%.3f", m.KernelL2Miss),
			fmt.Sprintf("%.3f", m.StaticKernelFrac),
			fmt.Sprintf("%d", m.TimerPeriod),
			fmt.Sprintf("%d", m.TimerBatch))
	}
	return c.writeTable("table4", t)
}
