// Tracereplay: demonstrate the trace-driven methodology (§II) and its
// known limitation. A packet trace is captured from a closed-loop batch run,
// then replayed on networks with different router delays: because replay
// fixes injection times, it loses message causality — the network slowdown
// it predicts understates what the closed-loop system actually experiences.
//
//	go run ./examples/tracereplay
package main

import (
	"context"
	"fmt"
	"log"

	"noceval/internal/core"
)

func main() {
	const b, m = 100, 2
	trs := []int64{1, 2, 4}

	// The closed-loop runtime on each network: one batch spec per router
	// delay, run as one set.
	capture := core.Baseline()
	var specs []core.ExperimentSpec
	for _, tr := range trs {
		p := capture
		p.RouterDelay = tr
		specs = append(specs, core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: m})
	}
	closed, err := new(core.RunSet).RunAll(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	// A trace captured from the batch run on the tr=1 network, replayed on
	// each network. The capture is the tr=1 batch spec's run, recorded.
	replays := make([]*core.TraceResult, len(trs))
	for i := range trs {
		if replays[i], err = core.CaptureAndReplay(capture, specs[i].Network, b, m); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("captured %d packets over %d cycles from a closed-loop run (tr=1)\n",
		len(replays[0].Trace.Events), replays[0].CaptureRuntime)

	fmt.Printf("\n%6s %18s %18s\n", "tr", "replay runtime", "closed-loop runtime")
	for i, tr := range trs {
		fmt.Printf("%6d %18d %18d\n", tr, replays[i].Replay.Runtime, closed[i].Batch.Runtime)
	}
	fmt.Println("\nThe replayed runtimes barely grow with tr: fixed timestamps cannot")
	fmt.Println("model the injection slowdown that network feedback causes in the")
	fmt.Println("closed-loop system — the paper's §II critique of trace-driven evaluation.")
}
