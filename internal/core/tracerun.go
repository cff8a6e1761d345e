package core

import (
	"fmt"

	"noceval/internal/closedloop"
	"noceval/internal/trace"
)

// TraceResult bundles a capture run with its replay.
type TraceResult struct {
	Trace *trace.Trace
	// CaptureRuntime is the closed-loop runtime on the capture network.
	CaptureRuntime int64
	Replay         *trace.ReplayResult
}

// CaptureAndReplay runs the trace-driven methodology end to end: a closed-
// loop batch workload (B transactions per node, at most M outstanding)
// executes on the capture network while every injected packet is recorded;
// the trace then replays on the replay network. Comparing
// Replay.Runtime against a direct closed-loop run on the replay network
// quantifies the causality the trace lost (§II).
func CaptureAndReplay(capture, replay NetworkParams, b, m int) (*TraceResult, error) {
	repCfg, err := replay.Build()
	if err != nil {
		return nil, err
	}
	res, tr, err := captureBatch(capture, b, m)
	if err != nil {
		return nil, err
	}
	rep, err := trace.Replay(tr, repCfg, 0)
	if err != nil {
		return nil, err
	}
	return &TraceResult{Trace: tr, CaptureRuntime: res.Runtime, Replay: rep}, nil
}

// captureBatch runs the batch spec of p, b and m — its pattern, its seed,
// and its defaults for a zero b or m — with every packet handed to Send
// recorded. Recording does not perturb the run: the result equals the batch
// spec's. A run that does not complete fails the capture.
func captureBatch(p NetworkParams, b, m int) (*closedloop.BatchResult, *trace.Trace, error) {
	built, err := openLoopConfig(p, OpenLoopOpts{})
	if err != nil {
		return nil, nil, err
	}
	tr := &trace.Trace{Nodes: built.Net.Topo.N}
	built.Net.OnSend = tr.Record
	res, err := closedloop.RunBatch(closedloop.BatchConfig{
		Net:     built.Net,
		Pattern: built.Pattern,
		B:       defaulted(b, defaultB),
		M:       defaulted(m, defaultM),
		Seed:    p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	if !res.Completed {
		return nil, nil, fmt.Errorf("core: trace capture on %s did not complete by cycle %d", p.Topology, res.Runtime)
	}
	return res, tr, nil
}
