// Correlation: the paper's headline experiment in miniature. Compare the
// baseline batch model and the enhanced batch model (NAR injection + reply
// latency + kernel traffic) against execution-driven simulation across a
// router-delay sweep, and report the correlation coefficients (§IV-D, §V).
//
//	go run ./examples/correlation
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"noceval/internal/core"
	"noceval/internal/workload"
)

func main() {
	benchmarks := []string{"blackscholes", "lu", "fft"}
	trs := []int64{1, 2, 4, 8}
	clock := workload.Clock3GHz
	var runs core.RunSet // simulates each distinct spec once

	// 1. Execution-driven runs and the baseline batch model (one curve for
	//    every benchmark) at every router delay, benchmark-major, beside the
	//    ideal-network characterizations the enhanced model is built from.
	var exec, baseline, chars []core.ExperimentSpec
	for _, b := range benchmarks {
		for _, tr := range trs {
			exec = append(exec, core.ExperimentSpec{Kind: "exec", Network: core.Table2Network(tr),
				Benchmark: b, Clock: clock.SpecName(), Timer: true, Seed: 7})
			baseline = append(baseline, core.ExperimentSpec{Kind: "batch", Network: core.Table2Network(tr), B: 300, M: 1})
		}
		chars = append(chars, core.ExperimentSpec{Kind: "characterize", Network: core.Baseline(),
			Benchmark: b, Clock: clock.SpecName(), Seed: 7})
	}
	res, err := runs.RunAll(context.Background(), slices.Concat(exec, baseline, chars))
	if err != nil {
		log.Fatal(err)
	}
	n := len(exec)
	execRes, baRes, models := res[:n], res[n:2*n], res[2*n:]

	// 2. The enhanced batch model, from each benchmark's characterization.
	var enhanced []core.ExperimentSpec
	for i := range benchmarks {
		for _, tr := range trs {
			s := models[i].Model.BatchSpec(300, 1, core.BAInjReOS)
			s.Network = core.Table2Network(tr)
			enhanced = append(enhanced, s)
		}
	}
	enRes, err := runs.RunAll(context.Background(), enhanced)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range slices.Concat(baRes, enRes) {
		if !r.Batch.Completed {
			log.Fatal("a batch run did not complete")
		}
	}

	// 3. Correlations. Each pair is one (benchmark, delay) point: the exec
	//    (X) and batch (Y) runtimes, normalized to tr=1.
	cb, err := core.CorrelateExecBatch(benchmarks, trs, execRes, baRes)
	if err != nil {
		log.Fatal(err)
	}
	ce, err := core.CorrelateExecBatch(benchmarks, trs, execRes, enRes)
	if err != nil {
		log.Fatal(err)
	}
	for i, b := range benchmarks {
		p := ce.Pairs[i*len(trs):]
		fmt.Printf("exec %-14s %.2f %.2f %.2f %.2f\n", b, p[0].X, p[1].X, p[2].X, p[3].X)
	}
	for i, b := range benchmarks {
		m, p := models[i].Model, ce.Pairs[i*len(trs):]
		fmt.Printf("batch(%-12s) NAR=%.4f L2miss=%.3f -> %.2f %.2f %.2f %.2f\n", b, m.NAR, m.L2Miss, p[0].Y, p[1].Y, p[2].Y, p[3].Y)
	}
	fmt.Printf("\ncorrelation with execution-driven runtimes:\n")
	fmt.Printf("  baseline batch model  (BA):           %.4f\n", cb.Coefficient)
	fmt.Printf("  enhanced batch model  (BA_inj+re+OS): %.4f\n", ce.Coefficient)
	fmt.Println("\nThe enhanced model tracks per-benchmark sensitivity to the network,")
	fmt.Println("which the baseline model cannot distinguish at all (paper Figs 15/19/22).")
}
