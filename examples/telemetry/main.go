// Telemetry: attach the observability layer to a small batch-model sweep.
// Each run collects run-level metrics, cycle-sampled per-router telemetry,
// and the per-node outstanding-request (MSHR-depth) series, and prints a
// progress heartbeat to stderr while it runs. The final run's utilization
// is rendered as a congestion heatmap.
//
//	go run ./examples/telemetry
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"noceval/internal/core"
	"noceval/internal/obs"
	"noceval/internal/topology"
)

func main() {
	// Table II interconnect: 4x4 mesh, 8 VCs, 4-flit buffers, DOR.
	params := core.Table2Network(1)
	topo, err := topology.ByName(params.Topology)
	if err != nil {
		log.Fatal(err)
	}

	// One observed batch spec per m, each with a fresh observer (nil would
	// be the zero-overhead path) and a progress heartbeat.
	ms := []int{1, 4, 16}
	observers := make([]*obs.Observer, len(ms))
	specs := make([]core.ExperimentSpec, len(ms))
	for i, m := range ms {
		observers[i] = obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 50})
		specs[i] = core.ExperimentSpec{Kind: "batch", Network: params, B: 400, M: m,
			Hooks: core.Hooks{
				Obs:      observers[i],
				Progress: obs.NewProgress(os.Stderr, 500*time.Millisecond),
			}}
	}
	res, err := new(core.RunSet).RunAll(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Batch-model sweep with telemetry attached ==")
	fmt.Printf("%6s %12s %18s %20s\n", "m", "runtime", "mean latency", "peak xbar util")
	for i, o := range observers {
		// Pull the headline numbers back out of the metrics snapshot.
		var meanLat float64
		for _, p := range o.Registry.Snapshot() {
			if p.Name == "batch.packet_latency_cycles" {
				meanLat = p.Value
			}
		}
		peak := 0.0
		for _, u := range o.Telemetry.MeanXbarUtil(topo.N) {
			if u > peak {
				peak = u
			}
		}
		fmt.Printf("%6d %12d %18.2f %20.4f\n", ms[i], res[i].Batch.Runtime, meanLat, peak)
	}
	last := observers[len(observers)-1]

	fmt.Println("\n== Congestion heatmap (m=16 run, mean crossbar utilization) ==")
	hm := core.UtilizationHeatmap(last.Telemetry, topo)
	fmt.Print(hm.String())
	fmt.Printf("max %.4f flits/cycle — DOR concentrates through-traffic on the center routers.\n",
		hm.MaxValue())

	// The per-node outstanding-request series shows the closed loop at work:
	// every node holds m requests in flight until its batch drains.
	n := len(last.Telemetry.Nodes)
	if n > 0 {
		s := last.Telemetry.Nodes[n/2]
		fmt.Printf("\nmid-run MSHR sample: cycle %d, node %d, %d outstanding\n",
			s.Cycle, s.Node, s.Outstanding)
	}
}
