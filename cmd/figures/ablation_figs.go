package main

// Side-claim checks and design ablations: the paper's claims that have no
// dedicated figure, plus the design choices DESIGN.md calls out, as one
// text report (ablations.txt):
//
//  1. §III-A: a 256-node (16x16 mesh) network "shows a similar trend" to
//     the 8x8 results — router-delay scaling and open/batch agreement.
//  2. §III-B: "simulations using different packet sizes (such as a mixture
//     of short and long packets) did not impact the comparisons".
//  3. Table I lists age-based arbitration: compare it with round-robin.
//  4. §II-B2: the barrier model "essentially measures the throughput of
//     the network" — its throughput should match the open-loop saturation
//     and the batch model at large m.
//  5. VC count (2 vs 4) at fixed total buffering.
//  6. The analytical sanity rails: simulated zero-load latency and
//     saturation vs the first-order models.
//  7. The MSHR analogy of §II-B1: sweeping the execution-driven cores'
//     memory-level parallelism mirrors the batch model's m sweep.
//
// One RunAll simulates the specs every section lists, and each section
// is written from its results. A6's saturation bisection then runs each
// probe as an openloop spec through ctx.runs, and A7 runs the CMP model
// directly (see ablationMLP).

import (
	"context"
	"fmt"
	"strings"

	"noceval/internal/analytic"
	"noceval/internal/cmp"
	"noceval/internal/core"
	"noceval/internal/network"
	"noceval/internal/openloop"
	"noceval/internal/routing"
	"noceval/internal/stats"
	"noceval/internal/topology"
	"noceval/internal/traffic"
	"noceval/internal/workload"
)

func init() {
	register("ablations", ablationsReport)
}

// A reduction writes a section of the report from its specs' results.
type reduction func(c *ctx, w *strings.Builder, res []*core.Result) error

// ablations is the report in order: each section lists the specs it
// simulates and is written under a "== title ==" header by the reduction
// it returns.
var ablations = []struct {
	title   string
	section func() ([]core.ExperimentSpec, reduction)
}{
	{"A1: 16x16 mesh shows the same router-delay trend", ablation16x16},
	{"A2: bimodal packet sizes do not change the comparison", ablationBimodal},
	{"A3: age-based vs round-robin arbitration", ablationArbitration},
	{"A4: barrier model measures network throughput", ablationBarrier},
	{"A5: virtual-channel count at fixed total buffering", ablationVCs},
	{"A6: simulation vs analytical bounds", ablationAnalytic},
	{"A7: execution-driven MLP mirrors the batch model's m", ablationMLP},
}

func ablationsReport(c *ctx) error {
	var specs []core.ExperimentSpec
	var ns []int
	var reduce []reduction
	for _, a := range ablations {
		s, r := a.section()
		specs, ns, reduce = append(specs, s...), append(ns, len(s)), append(reduce, r)
	}
	res, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return err
	}
	var b strings.Builder
	for i, a := range ablations {
		fmt.Fprintf(&b, "\n== %s ==\n", a.title)
		if err := reduce[i](c, &b, res[:ns[i]]); err != nil {
			return fmt.Errorf("%s: %w", a.title, err)
		}
		res = res[ns[i]:]
	}
	return c.writeFile("ablations.txt", b.String())
}

// ablation16x16 repeats the Fig 4a router-delay experiment on 256 nodes.
func ablation16x16() ([]core.ExperimentSpec, reduction) {
	trs := []int64{1, 2, 4}
	var specs []core.ExperimentSpec
	for _, tr := range trs {
		for _, topo := range []string{"mesh8x8", "mesh16x16"} {
			p := core.Baseline()
			p.Topology, p.RouterDelay = topo, tr
			specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: p, B: 200, M: 1})
		}
	}
	return specs, func(_ *ctx, w *strings.Builder, res []*core.Result) error {
		fmt.Fprintf(w, "%10s %14s %14s\n", "tr", "8x8 T ratio", "16x16 T ratio")
		ratio := func(i int) float64 { return float64(res[i].Batch.Runtime) / float64(res[i%2].Batch.Runtime) }
		for i, tr := range trs {
			fmt.Fprintf(w, "%10d %14.3f %14.3f\n", tr, ratio(2*i), ratio(2*i+1))
		}
		fmt.Fprintln(w, "expectation: both columns scale ~1 / ~1.5 / ~2.5 (zero-load dominated at m=1)")
		return nil
	}
}

// ablationBimodal repeats the router-delay comparison with the bimodal
// packet mix.
func ablationBimodal() ([]core.ExperimentSpec, reduction) {
	trs := []int64{1, 2, 4}
	var specs []core.ExperimentSpec
	for _, sizes := range []string{"single", "bimodal"} {
		for _, tr := range trs {
			p := core.Baseline()
			p.RouterDelay, p.Sizes = tr, sizes
			specs = append(specs, openLoopSpec(p, 0.1, core.OpenLoopOpts{}))
		}
	}
	return specs, func(_ *ctx, w *strings.Builder, res []*core.Result) error {
		fmt.Fprintf(w, "%10s %16s %16s\n", "tr", "1-flit latency", "bimodal latency")
		s1, sb := make([]float64, len(trs)), make([]float64, len(trs))
		for i, tr := range trs {
			s1[i], sb[i] = res[i].OpenLoop.AvgLatency, res[len(trs)+i].OpenLoop.AvgLatency
			fmt.Fprintf(w, "%10d %16.2f %16.2f\n", tr, s1[i], sb[i])
		}
		n1, _ := stats.Normalize(s1, 0)
		nb, _ := stats.Normalize(sb, 0)
		fmt.Fprintf(w, "normalized scaling: single %.3f/%.3f/%.3f, bimodal %.3f/%.3f/%.3f\n",
			n1[0], n1[1], n1[2], nb[0], nb[1], nb[2])
		fmt.Fprintln(w, "expectation: same relative scaling (the paper: packet sizes did not impact comparisons)")
		return nil
	}
}

// ablationArbitration compares round-robin and age-based arbitration near
// saturation, where allocation fairness matters most.
func ablationArbitration() ([]core.ExperimentSpec, reduction) {
	arbs := []string{"rr", "age"}
	var specs []core.ExperimentSpec
	for _, arb := range arbs {
		p := core.Baseline()
		p.Arb = arb
		specs = append(specs, openLoopSpec(p, 0.38, core.OpenLoopOpts{}))
	}
	return specs, func(_ *ctx, w *strings.Builder, res []*core.Result) error {
		fmt.Fprintf(w, "%8s %14s %14s %14s\n", "arb", "avg latency", "p99 latency", "worst node")
		for i, arb := range arbs {
			r := res[i].OpenLoop
			fmt.Fprintf(w, "%8s %14.2f %14.2f %14.2f\n", arb, r.AvgLatency, r.P99, r.WorstLatency)
		}
		fmt.Fprintln(w, "expectation: age-based tightens the tail (p99, worst node) near saturation")
		return nil
	}
}

// ablationBarrier compares the barrier model's throughput with the batch
// model at large m and the open-loop accepted rate far beyond saturation,
// where accepted equals capacity.
func ablationBarrier() ([]core.ExperimentSpec, reduction) {
	p := core.Baseline()
	specs := []core.ExperimentSpec{
		{Kind: "barrier", Network: p, B: 500, Phases: 1},
		{Kind: "batch", Network: p, B: 500, M: 32},
		openLoopSpec(p, 0.8, core.OpenLoopOpts{}),
	}
	return specs, func(_ *ctx, w *strings.Builder, res []*core.Result) error {
		fmt.Fprintf(w, "barrier model throughput:     %.4f flits/cycle/node\n", res[0].Barrier.Throughput)
		fmt.Fprintf(w, "batch model (m=32) throughput: %.4f\n", res[1].Batch.Throughput)
		fmt.Fprintf(w, "open-loop accepted @ overload: %.4f\n", res[2].OpenLoop.Accepted)
		fmt.Fprintln(w, "expectation: all three agree — inter-node dependency measures throughput (SII-B2)")
		return nil
	}
}

// ablationVCs holds total buffering constant (VCs x depth = 32 flits) and
// varies the VC count.
func ablationVCs() ([]core.ExperimentSpec, reduction) {
	cases := []struct{ vcs, q int }{{2, 16}, {4, 8}}
	var specs []core.ExperimentSpec
	for _, tc := range cases {
		p := core.Baseline()
		p.VCs, p.BufDepth = tc.vcs, tc.q
		specs = append(specs, openLoopSpec(p, 0.40, core.OpenLoopOpts{}))
	}
	return specs, func(_ *ctx, w *strings.Builder, res []*core.Result) error {
		fmt.Fprintf(w, "%6s %6s %14s %12s\n", "VCs", "q", "avg latency", "stable@0.40")
		for i, tc := range cases {
			r := res[i].OpenLoop
			fmt.Fprintf(w, "%6d %6d %14.2f %12v\n", tc.vcs, tc.q, r.AvgLatency, r.Stable)
		}
		fmt.Fprintln(w, "expectation: more VCs reduce head-of-line blocking at equal storage")
		return nil
	}
}

// ablationAnalytic checks the simulator against the first-order models.
// The saturation bisection probes one rate at a time, each as an openloop
// spec of the baseline at short phases.
func ablationAnalytic() ([]core.ExperimentSpec, reduction) {
	specs := []core.ExperimentSpec{openLoopSpec(core.Baseline(), 0.01, core.OpenLoopOpts{})}
	return specs, func(c *ctx, w *strings.Builder, res []*core.Result) error {
		topo := topology.NewMesh(8, 8)
		model := analytic.Model{Topo: topo, Routing: routing.DOR{}, RouterDelay: 1}
		t0, err := model.ZeroLoadLatency(traffic.Uniform{}, 1)
		if err != nil {
			return err
		}
		thetaA, gamma, err := model.ChannelBound(traffic.Uniform{})
		if err != nil {
			return err
		}
		probe := func(cfg openloop.Config) (*openloop.Result, error) {
			res, err := c.runs.RunAll(context.Background(), []core.ExperimentSpec{openLoopSpec(core.Baseline(), cfg.Rate,
				core.OpenLoopOpts{Warmup: cfg.Warmup, Measure: cfg.Measure, DrainLimit: cfg.DrainLimit})})
			if err != nil {
				return nil, err
			}
			return res[0].OpenLoop, nil
		}
		simSat, err := openloop.SaturationWith(openloop.Config{Warmup: 2000, Measure: 3000, DrainLimit: 20000}, 0.1, 0.6, 3, probe)
		if err != nil {
			return err
		}
		simT0 := res[0].OpenLoop.AvgLatency
		fmt.Fprintf(w, "zero-load latency: analytic %.2f, simulated %.2f (simulated - analytic = %+.2f)\n", t0, simT0, simT0-t0)
		fmt.Fprintf(w, "saturation: channel bound %.3f (gamma_max %.3f), simulated %.3f, ideal bisection %.3f\n",
			thetaA, gamma, simSat, analytic.IdealThroughput(topo))
		fmt.Fprintln(w, "expectation: analytic T0 <= simulated T0; simulated saturation in [0.6, 1.0] x channel bound")
		return nil
	}
}

// ablationMLP sweeps the execution-driven cores' memory-level parallelism
// and compares the runtime scaling against the batch model's m sweep on
// the Table II network: the MSHR analogy of §II-B1 in both directions.
// The execution-driven runs set cmp.Config's MaxLoadMLP and LoadDepFrac,
// which no spec field carries, so they run the CMP model directly,
// outside the run set.
func ablationMLP() ([]core.ExperimentSpec, reduction) {
	mlps := []int{1, 2, 4, 8}
	var specs []core.ExperimentSpec
	for _, m := range mlps {
		specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: core.Table2Network(1), B: 300, M: m})
	}
	return specs, func(_ *ctx, w *strings.Builder, res []*core.Result) error {
		prof, err := workload.ByName("fft")
		if err != nil {
			return err
		}
		execT, batchT := make([]float64, len(mlps)), make([]float64, len(mlps))
		for i, mlp := range mlps {
			cfg := cmp.DefaultConfig()
			cfg.MaxLoadMLP = mlp
			cfg.LoadDepFrac = 0.3
			if mlp == 1 {
				cfg.LoadDepFrac = 1
			}
			netCfg, err := core.Table2Network(1).Build()
			if err != nil {
				return err
			}
			sys, err := cmp.NewSystem(cfg, cmp.NetFabric{Network: network.New(netCfg)},
				workload.Programs(prof, cfg.Tiles, 7))
			if err != nil {
				return err
			}
			prof.Warm(sys, cfg.Tiles)
			r := sys.Run()
			if !r.Completed {
				return fmt.Errorf("mlp=%d did not complete", mlp)
			}
			execT[i], batchT[i] = float64(r.Cycles), float64(res[i].Batch.Runtime)
		}
		en, _ := stats.Normalize(execT, 0)
		bn, _ := stats.Normalize(batchT, 0)
		fmt.Fprintf(w, "%8s %18s %18s\n", "m / MLP", "exec runtime", "batch runtime")
		for i, m := range mlps {
			fmt.Fprintf(w, "%8d %18.3f %18.3f\n", m, en[i], bn[i])
		}
		fmt.Fprintln(w, "expectation: both fall with more outstanding requests, batch more steeply")
		fmt.Fprintln(w, "(the batch model has no compute between requests to hide latency behind)")
		return nil
	}
}
