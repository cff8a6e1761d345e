// Fullsystem: run a benchmark on the execution-driven CMP simulator — the
// repository's Simics/GEMS+Garnet substitute — and watch how the network's
// router delay changes end-to-end runtime, kernel-traffic share, and cache
// behaviour.
//
//	go run ./examples/fullsystem
package main

import (
	"context"
	"fmt"
	"log"

	"noceval/internal/core"
	"noceval/internal/workload"
)

func main() {
	bench := "lu"
	fmt.Printf("Execution-driven simulation of %s on the Table II CMP\n", bench)
	fmt.Printf("(16 in-order cores, MSI directory over a 4x4 mesh, 75 MHz clock, timer on)\n\n")

	// The four router delays and the characterization, as specs of one run set.
	trs := []int64{1, 2, 4, 8}
	clock := workload.Clock75MHz.SpecName()
	var specs []core.ExperimentSpec
	for _, tr := range trs {
		specs = append(specs, core.ExperimentSpec{Kind: "exec", Network: core.Table2Network(tr),
			Benchmark: bench, Clock: clock, Timer: true, Seed: 7})
	}
	specs = append(specs, core.ExperimentSpec{Kind: "characterize", Network: core.Baseline(),
		Benchmark: bench, Clock: clock, Seed: 7})
	res, err := new(core.RunSet).RunAll(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%6s %12s %16s %14s %10s\n", "tr", "cycles", "slowdown vs tr=1", "kernel share", "L2 miss")
	base := res[0].Exec.Cycles
	for i, tr := range trs {
		r := res[i].Exec
		fmt.Printf("%6d %12d %16.2fx %13.1f%% %10.3f\n",
			tr, r.Cycles, float64(r.Cycles)/float64(base),
			100*float64(r.KernelFlits)/float64(r.TotalFlits),
			r.L2MissRate[0])
	}

	fmt.Println("\nCharacterization (the Table III/IV procedure):")
	m := res[len(trs)].Model
	fmt.Printf("  NAR %.4f (user %.4f, kernel %.4f)\n", m.NAR, m.UserNAR, m.KernelNAR)
	fmt.Printf("  L2 miss rate %.3f, static kernel fraction %.3f\n", m.L2Miss, m.StaticKernelFrac)
	fmt.Printf("  timer: every %d cycles, ~%d extra transactions/node/interrupt\n",
		m.TimerPeriod, m.TimerBatch)
	fmt.Println("\nThese numbers parameterize the enhanced batch model (see examples/correlation).")
}
