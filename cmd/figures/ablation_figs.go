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
//  8. iSLIP: extra switch-allocation passes on the baseline mesh.

import (
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

// ablations is the report in order: each body writes its section under
// a "== title ==" header.
var ablations = []struct {
	title string
	run   func(w *strings.Builder) error
}{
	{"A1: 16x16 mesh shows the same router-delay trend", ablation16x16},
	{"A2: bimodal packet sizes do not change the comparison", ablationBimodal},
	{"A3: age-based vs round-robin arbitration", ablationArbitration},
	{"A4: barrier model measures network throughput", ablationBarrier},
	{"A5: virtual-channel count at fixed total buffering", ablationVCs},
	{"A6: simulation vs analytical bounds", ablationAnalytic},
	{"A7: execution-driven MLP mirrors the batch model's m", ablationMLP},
	{"A8: iSLIP multi-pass switch allocation", ablationISLIP},
}

func ablationsReport(c *ctx) error {
	var b strings.Builder
	for _, a := range ablations {
		fmt.Fprintf(&b, "\n== %s ==\n", a.title)
		if err := a.run(&b); err != nil {
			return fmt.Errorf("%s: %w", a.title, err)
		}
	}
	return c.writeFile("ablations.txt", b.String())
}

// ablation16x16 repeats the Fig 4a router-delay experiment on 256 nodes.
func ablation16x16(w *strings.Builder) error {
	fmt.Fprintf(w, "%10s %14s %14s\n", "tr", "8x8 T ratio", "16x16 T ratio")
	base := map[string]int64{}
	for _, tr := range []int64{1, 2, 4} {
		var ratios []float64
		for _, topo := range []string{"mesh8x8", "mesh16x16"} {
			p := core.Baseline()
			p.Topology = topo
			p.RouterDelay = tr
			res, err := core.Batch(p, core.BatchParams{B: 200, M: 1})
			if err != nil {
				return err
			}
			if tr == 1 {
				base[topo] = res.Runtime
			}
			ratios = append(ratios, float64(res.Runtime)/float64(base[topo]))
		}
		fmt.Fprintf(w, "%10d %14.3f %14.3f\n", tr, ratios[0], ratios[1])
	}
	fmt.Fprintln(w, "expectation: both columns scale ~1 / ~1.5 / ~2.5 (zero-load dominated at m=1)")
	return nil
}

// ablationBimodal repeats the router-delay comparison with the bimodal
// packet mix.
func ablationBimodal(w *strings.Builder) error {
	fmt.Fprintf(w, "%10s %16s %16s\n", "tr", "1-flit latency", "bimodal latency")
	type row struct{ single, bimodal float64 }
	rows := map[int64]*row{}
	for _, sizes := range []string{"single", "bimodal"} {
		for _, tr := range []int64{1, 2, 4} {
			p := core.Baseline()
			p.RouterDelay = tr
			p.Sizes = sizes
			res, err := core.OpenLoopWith(p, 0.1, core.OpenLoopOpts{})
			if err != nil {
				return err
			}
			if rows[tr] == nil {
				rows[tr] = &row{}
			}
			if sizes == "single" {
				rows[tr].single = res.AvgLatency
			} else {
				rows[tr].bimodal = res.AvgLatency
			}
		}
	}
	var s1, sb []float64
	for _, tr := range []int64{1, 2, 4} {
		fmt.Fprintf(w, "%10d %16.2f %16.2f\n", tr, rows[tr].single, rows[tr].bimodal)
		s1 = append(s1, rows[tr].single)
		sb = append(sb, rows[tr].bimodal)
	}
	n1, _ := stats.Normalize(s1, 0)
	nb, _ := stats.Normalize(sb, 0)
	fmt.Fprintf(w, "normalized scaling: single %.3f/%.3f/%.3f, bimodal %.3f/%.3f/%.3f\n",
		n1[0], n1[1], n1[2], nb[0], nb[1], nb[2])
	fmt.Fprintln(w, "expectation: same relative scaling (the paper: packet sizes did not impact comparisons)")
	return nil
}

// ablationArbitration compares round-robin and age-based arbitration near
// saturation, where allocation fairness matters most.
func ablationArbitration(w *strings.Builder) error {
	fmt.Fprintf(w, "%8s %14s %14s %14s\n", "arb", "avg latency", "p99 latency", "worst node")
	for _, arb := range []string{"rr", "age"} {
		p := core.Baseline()
		p.Arb = arb
		res, err := core.OpenLoopWith(p, 0.38, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s %14.2f %14.2f %14.2f\n", arb, res.AvgLatency, res.P99, res.WorstLatency)
	}
	fmt.Fprintln(w, "expectation: age-based tightens the tail (p99, worst node) near saturation")
	return nil
}

// ablationBarrier compares the barrier model's throughput with the batch
// model at large m and the open-loop accepted rate beyond saturation.
func ablationBarrier(w *strings.Builder) error {
	p := core.Baseline()
	bar, err := core.Barrier(p, 500, 1)
	if err != nil {
		return err
	}
	bat, err := core.Batch(p, core.BatchParams{B: 500, M: 32})
	if err != nil {
		return err
	}
	ol, err := core.OpenLoopWith(p, 0.8, core.OpenLoopOpts{}) // far beyond saturation: accepted = capacity
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "barrier model throughput:     %.4f flits/cycle/node\n", bar.Throughput)
	fmt.Fprintf(w, "batch model (m=32) throughput: %.4f\n", bat.Throughput)
	fmt.Fprintf(w, "open-loop accepted @ overload: %.4f\n", ol.Accepted)
	fmt.Fprintln(w, "expectation: all three agree — inter-node dependency measures throughput (SII-B2)")
	return nil
}

// ablationVCs holds total buffering constant (VCs x depth = 32 flits) and
// varies the VC count.
func ablationVCs(w *strings.Builder) error {
	fmt.Fprintf(w, "%6s %6s %14s %12s\n", "VCs", "q", "avg latency", "stable@0.40")
	for _, tc := range []struct{ vcs, q int }{{2, 16}, {4, 8}} {
		p := core.Baseline()
		p.VCs = tc.vcs
		p.BufDepth = tc.q
		res, err := core.OpenLoopWith(p, 0.40, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %6d %14.2f %12v\n", tc.vcs, tc.q, res.AvgLatency, res.Stable)
	}
	fmt.Fprintln(w, "expectation: more VCs reduce head-of-line blocking at equal storage")
	return nil
}

// ablationMLP sweeps the execution-driven cores' memory-level parallelism
// and compares the runtime scaling against the batch model's m sweep: the
// MSHR analogy of §II-B1 in both directions.
func ablationMLP(w *strings.Builder) error {
	prof, err := workload.ByName("fft")
	if err != nil {
		return err
	}
	mlps := []int{1, 2, 4, 8}
	execT := make([]float64, len(mlps))
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
		res := sys.Run()
		if !res.Completed {
			return fmt.Errorf("mlp=%d did not complete", mlp)
		}
		execT[i] = float64(res.Cycles)
	}
	batchT := make([]float64, len(mlps))
	for i, m := range mlps {
		res, err := core.Batch(core.Table2Network(1), core.BatchParams{B: 300, M: m})
		if err != nil {
			return err
		}
		batchT[i] = float64(res.Runtime)
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

// ablationISLIP measures whether extra switch-allocation passes buy
// throughput on the baseline mesh (they matter most with many VCs per
// port competing for distinct outputs).
func ablationISLIP(w *strings.Builder) error {
	fmt.Fprintf(w, "%8s %14s %14s\n", "SA iters", "avg latency", "accepted@0.42")
	for _, it := range []int{1, 2, 4} {
		p := core.Baseline()
		p.VCs = 4
		p.BufDepth = 8
		p.SAIterations = it
		res, err := core.OpenLoopWith(p, 0.42, core.OpenLoopOpts{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %14.2f %14.4f\n", it, res.AvgLatency, res.Accepted)
	}
	fmt.Fprintln(w, "expectation: extra passes never hurt; gains are small when the")
	fmt.Fprintln(w, "mesh is channel-limited rather than allocator-limited")
	return nil
}

// ablationAnalytic checks the simulator against the first-order models.
func ablationAnalytic(w *strings.Builder) error {
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

	p := core.Baseline()
	simT0, err := core.OpenLoopWith(p, 0.01, core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	cfg, err := p.Build()
	if err != nil {
		return err
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	satCfg := openloop.Config{
		Net: cfg, Pattern: pat, Sizes: sizes,
		Warmup: 2000, Measure: 3000, DrainLimit: 20000, Seed: 1,
	}
	simSat, err := openloop.SaturationWith(satCfg, 0.1, 0.6, 3, openloop.Run)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "zero-load latency: analytic %.2f, simulated %.2f (sim >= analytic)\n", t0, simT0.AvgLatency)
	fmt.Fprintf(w, "saturation: channel bound %.3f (gamma_max %.3f), simulated %.3f, ideal bisection %.3f\n",
		thetaA, gamma, simSat, analytic.IdealThroughput(topo))
	fmt.Fprintln(w, "expectation: analytic T0 <= simulated T0; simulated saturation in [0.6, 1.0] x channel bound")
	return nil
}
