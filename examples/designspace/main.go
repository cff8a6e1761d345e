// Designspace: explore a topology x routing design space with the
// closed-loop batch model — the framework's intended use-case of fast
// design-space exploration with system-level insight.
//
//	go run ./examples/designspace
package main

import (
	"context"
	"fmt"
	"log"

	"noceval/internal/core"
)

func main() {
	topologies := []string{"mesh8x8", "torus8x8", "ring64"}
	routings := map[string][]string{
		"mesh8x8":  {"dor", "ma", "romm", "val"},
		"torus8x8": {"dor"},
		"ring64":   {"dor"},
	}

	// The design space as a list of specs, simulated by one run set.
	var specs []core.ExperimentSpec
	for _, topo := range topologies {
		for _, alg := range routings[topo] {
			for _, m := range []int{1, 8} {
				p := core.Baseline()
				p.Topology = topo
				p.Routing = alg
				p.VCs = 4 // enough VC classes for every algorithm
				specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: p, B: 500, M: m})
			}
		}
	}
	res, err := new(core.RunSet).RunAll(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Design-space sweep: batch model, b=500, uniform random traffic")
	fmt.Printf("%-10s %-6s %6s %12s %14s\n", "topology", "alg", "m", "runtime", "throughput")
	type key struct{ topo, alg string }
	best := map[int]key{}
	bestT := map[int]int64{}
	for i, s := range specs {
		r, m := res[i].Batch, s.M
		topo, alg := s.Network.Topology, s.Network.Routing
		fmt.Printf("%-10s %-6s %6d %12d %14.4f\n", topo, alg, m, r.Runtime, r.Throughput)
		if t, ok := bestT[m]; !ok || r.Runtime < t {
			bestT[m] = r.Runtime
			best[m] = key{topo, alg}
		}
	}
	for _, m := range []int{1, 8} {
		fmt.Printf("\nbest at m=%d: %s/%s (T=%d)\n", m, best[m].topo, best[m].alg, bestT[m])
	}
	fmt.Println("\nNote how the winner can change with m: latency-bound systems (m=1)")
	fmt.Println("prefer low-diameter paths, throughput-bound systems (m=8) prefer bisection.")
}
