// Quickstart: measure a latency-vs-load curve for an 8x8 mesh with the
// open-loop methodology, then measure the same network with the closed-loop
// batch model — the two lenses the framework compares.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"noceval/internal/core"
)

func main() {
	// Table I baseline: 8x8 mesh, DOR, 2 VCs, 16-flit buffers, tr=1.
	params := core.Baseline()

	fmt.Println("== Open-loop: latency vs offered load ==")
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	results, err := core.OpenLoopSweepWith(params, rates, core.OpenLoopOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%10s %14s %10s\n", "offered", "avg latency", "stable")
	for _, r := range results {
		fmt.Printf("%10.2f %14.2f %10v\n", r.Rate, r.AvgLatency, r.Stable)
	}

	fmt.Println("\n== Closed-loop batch model: runtime vs outstanding requests ==")
	fmt.Printf("%6s %12s %22s\n", "m", "runtime", "throughput (flits/cyc/node)")
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		res, err := core.Batch(params, core.BatchParams{B: 500, M: m})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %12d %22.4f\n", m, res.Runtime, res.Throughput)
	}

	fmt.Println("\nThe batch runtime at m=1 tracks zero-load latency; at m=32 it")
	fmt.Println("saturates at the same throughput the open-loop curve saturates at.")
}
