package noceval

// One benchmark per paper table/figure: each exercises the exact code path
// that regenerates it (cmd/figures produces the full data series; these
// run scaled-down versions and report the headline metric via
// b.ReportMetric so regressions in either performance or *results* are
// visible from `go test -bench`).

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/network"
	"noceval/internal/openloop"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/stats"
	"noceval/internal/topology"
	"noceval/internal/traffic"
	"noceval/internal/workload"
)

// quickOpenLoop runs a short open-loop measurement.
func quickOpenLoop(b *testing.B, p core.NetworkParams, rate float64) *openloop.Result {
	b.Helper()
	cfg, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	res, err := openloop.Run(openloop.Config{
		Net: cfg, Pattern: pat, Sizes: sizes, Rate: rate,
		Warmup: 1000, Measure: 2000, DrainLimit: 20000, Seed: p.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func quickBatch(b *testing.B, p core.NetworkParams, bp core.BatchParams) *closedloop.BatchResult {
	b.Helper()
	if bp.B == 0 {
		bp.B = 150
	}
	res, err := core.Batch(p, bp)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Completed {
		b.Fatal("batch did not complete")
	}
	return res
}

// correlateOpenBatch runs the Fig 5 procedure at b=150 with the default
// phases: the batch grid (m-major), then every cell's network offered the
// throughput its batch run achieved, reduced by core.CorrelateOpenBatch.
func correlateOpenBatch(b *testing.B, ms []int, labels []string, variants []core.NetworkParams, worstCase bool) core.Correlation {
	b.Helper()
	var grid []core.ExperimentSpec
	for _, m := range ms {
		for _, p := range variants {
			grid = append(grid, core.ExperimentSpec{Kind: "batch", Network: p, B: 150, M: m})
		}
	}
	var rs core.RunSet
	batch, err := rs.RunAll(context.Background(), grid)
	if err != nil {
		b.Fatal(err)
	}
	open := make([]core.ExperimentSpec, len(grid))
	for i, r := range batch {
		if !r.Batch.Completed {
			b.Fatal("batch did not complete")
		}
		open[i] = core.ExperimentSpec{Kind: "openloop", Network: grid[i].Network, Rate: r.Batch.Throughput}
	}
	ol, err := rs.RunAll(context.Background(), open)
	if err != nil {
		b.Fatal(err)
	}
	corr, err := core.CorrelateOpenBatch(ms, labels, batch, ol, worstCase)
	if err != nil {
		b.Fatal(err)
	}
	return corr
}

// BenchmarkFig01 measures one point of the latency/load curve.
func BenchmarkFig01_LatencyLoadCurve(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		lat = quickOpenLoop(b, core.Baseline(), 0.2).AvgLatency
	}
	b.ReportMetric(lat, "avg-latency-cycles")
}

// BenchmarkFig02 measures batch runtime scaling over b.
func BenchmarkFig02_BatchSizeScaling(b *testing.B) {
	var norm float64
	for i := 0; i < b.N; i++ {
		res := quickBatch(b, core.Baseline(), core.BatchParams{B: 1000, M: 4})
		norm = float64(res.Runtime) / 1000
	}
	b.ReportMetric(norm, "runtime-per-request")
}

// BenchmarkFig03 measures the open-loop router-delay latency ratio.
func BenchmarkFig03_RouterDelayOpenLoop(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		p1 := core.Baseline()
		p2 := core.Baseline()
		p2.RouterDelay = 2
		ratio = quickOpenLoop(b, p2, 0.05).AvgLatency / quickOpenLoop(b, p1, 0.05).AvgLatency
	}
	b.ReportMetric(ratio, "tr2-tr1-latency-ratio") // paper: ~1.5
}

// BenchmarkFig04 measures the batch-model router-delay runtime ratio.
func BenchmarkFig04_RouterDelayBatch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		p2 := core.Baseline()
		p2.RouterDelay = 2
		r1 := quickBatch(b, core.Baseline(), core.BatchParams{M: 1})
		r2 := quickBatch(b, p2, core.BatchParams{M: 1})
		ratio = float64(r2.Runtime) / float64(r1.Runtime)
	}
	b.ReportMetric(ratio, "tr2-tr1-runtime-ratio") // paper: ~1.45
}

// BenchmarkFig05 runs the open-loop/batch correlation procedure.
func BenchmarkFig05_OpenBatchCorrelation(b *testing.B) {
	var coeff float64
	for i := 0; i < b.N; i++ {
		variants := make([]core.NetworkParams, 3)
		for j, tr := range []int64{1, 2, 4} {
			variants[j] = core.Baseline()
			variants[j].RouterDelay = tr
		}
		coeff = correlateOpenBatch(b, []int{1, 4}, []string{"tr=1", "tr=2", "tr=4"}, variants, false).Coefficient
	}
	b.ReportMetric(coeff, "correlation") // paper: 0.9953
}

// BenchmarkFig06 compares topologies in the batch model.
func BenchmarkFig06_TopologyBatch(b *testing.B) {
	var ringOverMesh float64
	for i := 0; i < b.N; i++ {
		mesh := core.Baseline()
		ring := core.Baseline()
		ring.Topology = "ring64"
		rm := quickBatch(b, mesh, core.BatchParams{M: 8})
		rr := quickBatch(b, ring, core.BatchParams{M: 8})
		ringOverMesh = float64(rr.Runtime) / float64(rm.Runtime)
	}
	b.ReportMetric(ringOverMesh, "ring-mesh-runtime-ratio") // > 1
}

// BenchmarkFig07 measures the mesh's center/edge finish-time skew.
func BenchmarkFig07_PerNodeRuntime(b *testing.B) {
	var skew float64
	for i := 0; i < b.N; i++ {
		res := quickBatch(b, core.Baseline(), core.BatchParams{M: 1})
		finishes := make([]float64, len(res.NodeFinish))
		for j, t := range res.NodeFinish {
			finishes[j] = float64(t)
		}
		skew = stats.Max(finishes) / stats.Min(finishes)
	}
	b.ReportMetric(skew, "worst-best-node-ratio") // mesh: noticeably > 1
}

// BenchmarkFig08 runs the worst-case topology correlation.
func BenchmarkFig08_TopologyCorrelation(b *testing.B) {
	var coeff float64
	for i := 0; i < b.N; i++ {
		names := []string{"mesh8x8", "torus8x8", "ring64"}
		variants := make([]core.NetworkParams, len(names))
		for j, topo := range names {
			variants[j] = core.Baseline()
			variants[j].Topology = topo
		}
		coeff = correlateOpenBatch(b, []int{1, 4}, names, variants, true).Coefficient
	}
	b.ReportMetric(coeff, "correlation") // paper: 0.999
}

// BenchmarkFig09 measures VAL's zero-load penalty under uniform traffic.
func BenchmarkFig09_RoutingOpenLoop(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		dor := core.Baseline()
		dor.VCs = 4
		val := dor
		val.Routing = "val"
		ratio = quickOpenLoop(b, val, 0.05).AvgLatency / quickOpenLoop(b, dor, 0.05).AvgLatency
	}
	b.ReportMetric(ratio, "val-dor-latency-ratio") // ~2 (doubled path length)
}

// BenchmarkFig10 measures the batch model's view of VAL under transpose.
func BenchmarkFig10_RoutingBatch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		dor := core.Baseline()
		dor.VCs = 4
		dor.Pattern = "transpose"
		val := dor
		val.Routing = "val"
		rd := quickBatch(b, dor, core.BatchParams{M: 1})
		rv := quickBatch(b, val, core.BatchParams{M: 1})
		ratio = float64(rv.Runtime) / float64(rd.Runtime)
	}
	// Paper: only ~1.7% difference — worst-case nodes route minimally
	// under both algorithms.
	b.ReportMetric(ratio, "val-dor-runtime-ratio")
}

// BenchmarkFig11 builds the per-node runtime distribution.
func BenchmarkFig11_NodeDistributions(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		p := core.Baseline()
		p.VCs = 4
		p.Pattern = "transpose"
		res := quickBatch(b, p, core.BatchParams{M: 1})
		finishes := make([]float64, len(res.NodeFinish))
		for j, t := range res.NodeFinish {
			finishes[j] = float64(t)
		}
		h := stats.NewHistogram(0, stats.Max(finishes)+1, 8)
		h.AddAll(finishes)
		spread = stats.Max(finishes) - stats.Min(finishes)
	}
	b.ReportMetric(spread, "finish-spread-cycles")
}

// BenchmarkFig13 collects the lu traffic matrices.
func BenchmarkFig13_TrafficMatrix(b *testing.B) {
	var uniformity float64
	for i := 0; i < b.N; i++ {
		res, err := core.Exec(core.Table2Network(1), core.ExecParams{
			Benchmark: "lu", CollectMatrix: true, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Coefficient of variation of the actual-traffic matrix: low =
		// near-uniform (the paper's justification for uniform traffic).
		s := stats.Summarize(res.Matrix.Cells)
		uniformity = s.Std / s.Mean
	}
	b.ReportMetric(uniformity, "traffic-matrix-cv")
}

// BenchmarkFig14 runs one execution-driven tr sweep point.
func BenchmarkFig14_ExecRouterDelay(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := runSpecs(b, new(core.RunSet), trGrid(1, []int64{1, 8}, func(int) core.ExperimentSpec { return execSpec("fft", 7) }))
		ratio = float64(res[1].Exec.Cycles) / float64(res[0].Exec.Cycles)
	}
	b.ReportMetric(ratio, "tr8-tr1-exec-ratio") // paper fft: 1.51
}

// BenchmarkFig15 computes the baseline batch/exec correlation.
func BenchmarkFig15_BaselineCorrelation(b *testing.B) {
	var coeff float64
	for i := 0; i < b.N; i++ {
		benches := []string{"blackscholes", "fft"}
		trs := []int64{1, 4}
		exec := trGrid(len(benches), trs, func(i int) core.ExperimentSpec { return execSpec(benches[i], 7) })
		ba := trGrid(len(benches), trs, func(int) core.ExperimentSpec { return core.ExperimentSpec{Kind: "batch", B: 150, M: 1} })
		res := runSpecs(b, new(core.RunSet), slices.Concat(exec, ba))
		corr, err := core.CorrelateExecBatch(benches, trs, res[:len(exec)], res[len(exec):])
		if err != nil {
			b.Fatal(err)
		}
		coeff = corr.Coefficient
	}
	b.ReportMetric(coeff, "correlation")
}

// BenchmarkFig16 measures NAR's damping of the router-delay effect.
func BenchmarkFig16_NARInjectionModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		p4 := core.Baseline()
		p4.RouterDelay = 4
		slow := quickBatch(b, p4, core.BatchParams{M: 16, NAR: 0.04})
		fast := quickBatch(b, core.Baseline(), core.BatchParams{M: 16, NAR: 0.04})
		ratio = float64(slow.Runtime) / float64(fast.Runtime)
	}
	b.ReportMetric(ratio, "tr4-tr1-ratio-at-low-nar") // ~1: NAR hides tr
}

// BenchmarkFig17 measures the reply model's damping of the router-delay
// effect.
func BenchmarkFig17_ReplyModel(b *testing.B) {
	var ratio float64
	reply := closedloop.ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 0.1}
	for i := 0; i < b.N; i++ {
		p4 := core.Baseline()
		p4.RouterDelay = 4
		slow := quickBatch(b, p4, core.BatchParams{M: 1, Reply: reply})
		fast := quickBatch(b, core.Baseline(), core.BatchParams{M: 1, Reply: reply})
		ratio = float64(slow.Runtime) / float64(fast.Runtime)
	}
	b.ReportMetric(ratio, "tr4-tr1-ratio-with-memory") // << 2.4 (undamped)
}

// characterizeSpec is the characterization of bench at clock, seed 7.
func characterizeSpec(bench string, clock workload.Clock) core.ExperimentSpec {
	return core.ExperimentSpec{Kind: "characterize", Network: core.Baseline(), Benchmark: bench, Clock: clock.SpecName(), Seed: 7}
}

// BenchmarkFig18 runs one enhanced-variant batch sweep.
func BenchmarkFig18_EnhancedVariants(b *testing.B) {
	model := runSpecs(b, new(core.RunSet), []core.ExperimentSpec{characterizeSpec("lu", workload.Clock3GHz)})[0].Model
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runSpecs(b, new(core.RunSet), trGrid(1, []int64{1, 8}, func(int) core.ExperimentSpec {
			return model.BatchSpec(150, 1, core.BAInjRe)
		}))
		ratio = float64(res[1].Batch.Runtime) / float64(res[0].Batch.Runtime)
	}
	b.ReportMetric(ratio, "tr8-tr1-enhanced-ratio")
}

// enhancedCorrelations correlates the exec runs of benches over trs with
// the batch model under each variant, each benchmark modelled by its
// characterization at clock (timer: exec runs with the timer).
func enhancedCorrelations(b *testing.B, benches []string, trs []int64, clock workload.Clock, timer bool, variants ...core.Variant) []core.Correlation {
	b.Helper()
	var rs core.RunSet
	exec := trGrid(len(benches), trs, func(i int) core.ExperimentSpec {
		s := execSpec(benches[i], 7)
		s.Clock, s.Timer = clock.SpecName(), timer
		return s
	})
	var chars []core.ExperimentSpec
	for _, name := range benches {
		chars = append(chars, characterizeSpec(name, clock))
	}
	res := runSpecs(b, &rs, slices.Concat(exec, chars))
	corrs := make([]core.Correlation, len(variants))
	for k, v := range variants {
		batch := runSpecs(b, &rs, trGrid(len(benches), trs, func(i int) core.ExperimentSpec {
			return res[len(exec)+i].Model.BatchSpec(150, 1, v)
		}))
		var err error
		if corrs[k], err = core.CorrelateExecBatch(benches, trs, res[:len(exec)], batch); err != nil {
			b.Fatal(err)
		}
	}
	return corrs
}

// BenchmarkFig19 computes an enhanced-model correlation.
func BenchmarkFig19_EnhancedCorrelation(b *testing.B) {
	var coeff float64
	for i := 0; i < b.N; i++ {
		// Without the timer the clock changes no exec number, so the exec
		// runs share the 3 GHz of the characterization.
		corr := enhancedCorrelations(b, []string{"blackscholes", "fft"}, []int64{1, 4}, workload.Clock3GHz, false, core.BAInjRe)[0]
		coeff = corr.Coefficient
	}
	b.ReportMetric(coeff, "correlation")
}

// BenchmarkFig20 measures the kernel traffic share at 75 MHz.
func BenchmarkFig20_KernelShare(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := core.Exec(core.Table2Network(1), core.ExecParams{
			Benchmark: "lu", Clock: workload.Clock75MHz, Timer: true, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		share = float64(res.KernelFlits) / float64(res.TotalFlits)
	}
	b.ReportMetric(share, "kernel-traffic-share") // paper lu: > 0.8 at 75MHz
}

// BenchmarkFig21 records the injection timeline.
func BenchmarkFig21_InjectionTimeline(b *testing.B) {
	var buckets float64
	for i := 0; i < b.N; i++ {
		res, err := core.Exec(core.Table2Network(1), core.ExecParams{
			Benchmark: "blackscholes", Clock: workload.Clock75MHz, Timer: true,
			SampleInterval: 1000, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		buckets = float64(len(res.Timeline))
	}
	b.ReportMetric(buckets, "timeline-buckets")
}

// BenchmarkFig22 compares correlations with and without the OS model.
func BenchmarkFig22_OSModelCorrelation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		c := enhancedCorrelations(b, []string{"blackscholes", "lu"}, []int64{1, 4}, workload.Clock75MHz, true, core.BAInjReOS, core.BAInjRe)
		gain = c[0].Coefficient - c[1].Coefficient
	}
	b.ReportMetric(gain, "correlation-gain-from-os-model")
}

// BenchmarkTable3 runs the NAR characterization.
func BenchmarkTable3_NARCharacterization(b *testing.B) {
	var nar float64
	for i := 0; i < b.N; i++ {
		m, err := core.Characterize("barnes", workload.Clock3GHz, 7)
		if err != nil {
			b.Fatal(err)
		}
		nar = m.NAR
	}
	b.ReportMetric(nar, "nar")
}

// BenchmarkTable4 measures the 75 MHz benchmark characteristics.
func BenchmarkTable4_BenchmarkCharacteristics(b *testing.B) {
	var static float64
	for i := 0; i < b.N; i++ {
		m, err := core.Characterize("blackscholes", workload.Clock75MHz, 7)
		if err != nil {
			b.Fatal(err)
		}
		static = m.StaticKernelFrac
	}
	b.ReportMetric(static, "static-kernel-fraction")
}

// BenchmarkNetworkThroughput measures raw simulator speed: cycles per
// second on a saturated 8x8 mesh (not a paper figure; a performance
// baseline for the simulator itself).
func BenchmarkNetworkThroughput(b *testing.B) {
	p := core.Baseline()
	cfg, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := openloop.Run(openloop.Config{
			Net: cfg, Pattern: pat, Sizes: sizes, Rate: 0.35,
			Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += 2500
		_ = res
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkIdleOpenLoopLowLoad runs an open-loop measurement at ~5% of the
// 8x8 mesh's saturation load: the network is almost entirely idle, so
// wall-clock is dominated by how cheaply empty routers are skipped.
// Open-loop sources draw from the RNG every cycle, so no cycle can be
// skipped outright; the time goes into stepping only active routers.
func BenchmarkIdleOpenLoopLowLoad(b *testing.B) {
	p := core.Baseline()
	cfg, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := openloop.Run(openloop.Config{
			Net: cfg, Pattern: pat, Sizes: sizes, Rate: 0.02,
			Warmup: 500, Measure: 5000, DrainLimit: 10000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += 5500
		_ = res
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkIdleBatchTail runs a batch workload whose runtime is dominated
// by idle waiting: with m=1 and a 1000-cycle reply latency every node
// spends ~99% of each request/reply round trip waiting on an empty network,
// which the engine skips in O(1) jumps.
func BenchmarkIdleBatchTail(b *testing.B) {
	p := core.Baseline()
	cfg, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := closedloop.RunBatch(closedloop.BatchConfig{
			Net: cfg, B: 32, M: 1, Seed: 1,
			Reply:     closedloop.FixedReply{Latency: 1000},
			MaxCycles: 5_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("batch did not complete")
		}
		cycles += res.Runtime
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// benchShardScaling runs a heavily loaded 16x16 mesh open-loop measurement
// with the network split into the given number of spatial tiles. The rate
// sits just under the uniform-traffic saturation point (~0.25 flits/node/
// cycle for a 16x16 mesh), so every router has work each cycle but the
// drain phase still terminates. Every shard count produces bit-identical
// results (see internal/network/shard_test.go); this benchmark measures
// only the wall-clock effect of stepping tiles in parallel.
func benchShardScaling(b *testing.B, shards int) {
	b.Helper()
	p := core.Baseline()
	p.Topology = "mesh16x16"
	p.Shards = shards
	cfg, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := openloop.Run(openloop.Config{
			Net: cfg, Pattern: pat, Sizes: sizes, Rate: 0.20,
			Warmup: 500, Measure: 2000, DrainLimit: 20000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += 2500
		_ = res
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkShardScaling measures the sharded stepping loop on a loaded
// 16x16 mesh across shard counts. shards=1 is the sequential loop;
// higher counts step row-aligned tiles concurrently under a per-cycle
// barrier. Useful speedup needs GOMAXPROCS >= shards.
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardScaling(b, shards)
		})
	}
}

// BenchmarkAnalyticCurve measures the entire analytic path the screening
// layer runs before a sweep: compile the queueing estimator for the
// baseline mesh, evaluate a 25-point latency curve, and bisect for the
// saturation knee. Screening only pays because this costs a few
// milliseconds (the curve and knee alone are microseconds; route sampling
// dominates) against the hundreds of milliseconds of each simulated
// sweep point.
func BenchmarkAnalyticCurve(b *testing.B) {
	rates := make([]float64, 25)
	for i := range rates {
		rates[i] = 0.02 * float64(i+1)
	}
	var knee float64
	for i := 0; i < b.N; i++ {
		est, err := core.AnalyticEstimator(core.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		_ = est.Curve(rates)
		knee = est.Knee(3)
	}
	b.ReportMetric(knee, "knee-rate")
}

// benchSweepScreening sweeps a 64-node ring across rates that are mostly
// beyond its ~0.1 saturation point. GOMAXPROCS is pinned to 8 so the
// sweep's speculative wave is wide enough to launch the deep-saturation
// rates an unscreened sweep wastes drain-limit cycles on; with screening
// those rates never enter the wave (the reported results are identical —
// see internal/openloop/screen.go).
func benchSweepScreening(b *testing.B, screened bool) {
	b.Helper()
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	p := core.Baseline()
	p.Topology = "ring64"
	rates := []float64{0.02, 0.04, 0.06, 0.08, 0.3, 0.4, 0.5, 0.6}
	if screened {
		core.EnableScreening()
		defer core.DisableScreening()
	}
	opts := core.OpenLoopOpts{Warmup: 500, Measure: 1000, DrainLimit: 8000}
	b.ResetTimer()
	var pts int
	for i := 0; i < b.N; i++ {
		res, err := core.OpenLoopSweepWith(p, rates, opts)
		if err != nil {
			b.Fatal(err)
		}
		pts = len(res)
	}
	b.ReportMetric(float64(pts), "reported-points")
}

// BenchmarkSweepScreening compares an unscreened against an analytically
// screened open-loop sweep on a saturation-heavy rate axis.
func BenchmarkSweepScreening(b *testing.B) {
	b.Run("screen=off", func(b *testing.B) { benchSweepScreening(b, false) })
	b.Run("screen=on", func(b *testing.B) { benchSweepScreening(b, true) })
}

// stepBlock and routerBlock are how many cycles one op of the network and
// router Step benchmarks covers: the perf gate runs at -benchtime=3x, so an
// op has to be long enough to time (an empty router cycle is ~20 ns).
const (
	stepBlock   = 1024
	routerBlock = 64 * 1024
)

// BenchmarkNetworkStepSaturated is the saturated cycle loop with no run
// methodology around it: seeded Bernoulli injection of single-flit uniform
// traffic on the Table I network, NewPacket + Send + Step. One op is
// stepBlock cycles at steady state; ns/flit-hop divides the same time by
// the channel traversals made, the unit simulators are compared in.
func BenchmarkNetworkStepSaturated(b *testing.B) {
	for _, c := range []struct {
		topo string
		rate float64
	}{{"mesh8x8", 0.40}, {"mesh16x16", 0.20}} {
		b.Run(fmt.Sprintf("%s@%.2f", c.topo, c.rate), func(b *testing.B) {
			p := core.Baseline()
			p.Topology, p.Shards = c.topo, 0
			cfg, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			n := network.New(cfg)
			defer n.Close()
			rng, pat, nodes := sim.NewRNG(1), traffic.Uniform{}, n.Nodes()
			block := func() {
				for i := 0; i < stepBlock; i++ {
					for node := 0; node < nodes; node++ {
						if rng.Bernoulli(c.rate) {
							n.Send(n.NewPacket(node, pat.Dest(rng, node, nodes), 1, router.KindData))
						}
					}
					n.Step()
				}
			}
			hops := func() (h int64) {
				for _, cl := range n.ChannelLoads() {
					h += cl.Flits
				}
				return h
			}
			for i := 0; i < 4; i++ { // reach the steady occupancy
				block()
			}
			h0 := hops()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block()
			}
			b.StopTimer()
			if err := n.CheckConservation(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops()-h0), "ns/flit-hop")
			b.ReportMetric(float64(b.N*stepBlock)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// BenchmarkRouterStep holds one five-port router (a 4x4 mesh's centre) at
// a fixed occupancy: the harness plays the four neighbours and the
// terminal, popping deliveries, bouncing credits and topping the first vcs
// VCs of every input port up to depth flits before each Step. One op is
// routerBlock such router cycles, harness included — the harness is the
// router's own accept/pop/credit entry points.
func BenchmarkRouterStep(b *testing.B) {
	const id = 5
	topo := topology.NewMesh(4, 4)
	cfg := router.Config{VCs: 2, BufDepth: 16, Delay: 1}
	for _, c := range []struct {
		name       string
		vcs, depth int
	}{{"empty", 0, 0}, {"1flit_per_port", 1, 1}, {"full", cfg.VCs, cfg.BufDepth}} {
		b.Run(c.name, func(b *testing.B) {
			r := router.New(id, topo, routing.DOR{}, cfg)
			rng := sim.NewRNG(1)
			pool := make([]router.Packet, 8192) // recycled long after delivery
			next := 0
			var now int64
			block := func() {
				for i := 0; i < routerBlock; i++ {
					for p := 0; p < topo.Ports(); p++ {
						if f, ok := r.PopDelivery(now, p); ok && p != topo.LocalPort() {
							r.ReturnCredit(now, p, int(f.VC))
						}
						for v := 0; v < c.vcs; v++ {
							for r.InBufLen(p, v) < c.depth {
								pkt := &pool[next%len(pool)]
								next++
								*pkt = router.Packet{ID: uint64(next), Src: id, Dst: rng.Intn(topo.N), Size: 1, Route: routing.NewState(-1)}
								r.AcceptFlit(p, v, router.Flit{P: pkt})
							}
						}
					}
					r.Step(now)
					now++
				}
			}
			block()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block()
			}
		})
	}
}
