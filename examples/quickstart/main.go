// Quickstart: measure a latency-vs-load curve for an 8x8 mesh with the
// open-loop methodology, then measure the same network with the closed-loop
// batch model — the two lenses the framework compares.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"noceval/internal/core"
)

func main() {
	// Table I baseline: 8x8 mesh, DOR, 2 VCs, 16-flit buffers, tr=1.
	params := core.Baseline()

	// Every experiment is a spec; one run set simulates them all.
	ms := []int{1, 2, 4, 8, 16, 32}
	specs := []core.ExperimentSpec{{Kind: "sweep", Network: params, Rates: []float64{0.05, 0.1, 0.2, 0.3, 0.4}}}
	for _, m := range ms {
		specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: params, B: 500, M: m})
	}
	res, err := new(core.RunSet).RunAll(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Open-loop: latency vs offered load ==")
	fmt.Printf("%10s %14s %10s\n", "offered", "avg latency", "stable")
	for _, r := range res[0].Sweep {
		fmt.Printf("%10.2f %14.2f %10v\n", r.Rate, r.AvgLatency, r.Stable)
	}

	fmt.Println("\n== Closed-loop batch model: runtime vs outstanding requests ==")
	fmt.Printf("%6s %12s %22s\n", "m", "runtime", "throughput (flits/cyc/node)")
	for i, m := range ms {
		b := res[1+i].Batch
		fmt.Printf("%6d %12d %22.4f\n", m, b.Runtime, b.Throughput)
	}

	fmt.Println("\nThe batch runtime at m=1 tracks zero-load latency; at m=32 it")
	fmt.Println("saturates at the same throughput the open-loop curve saturates at.")
}
