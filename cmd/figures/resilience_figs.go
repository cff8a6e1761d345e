package main

// Resilience sweep: graceful-degradation curves under seed-deterministic
// fault injection (internal/fault). For a ladder of per-link fault rates,
// the open-loop figure tracks average/p99 latency and the delivered
// fraction at a fixed offered load, and the batch figure tracks normalized
// runtime — both with the recovery NIC retransmitting on timeout. Every
// point flows through the experiment cache: the fault parameters are part
// of NetworkParams, so each faulted configuration hashes under its own key
// while the rate-zero point shares the fault-free baseline's entry.

import (
	"context"
	"noceval/internal/core"
	"noceval/internal/fault"
	"noceval/internal/stats"
)

func init() {
	register("resilience", resilienceSweep)
}

// resilienceRates is the fault-rate ladder (per link traversal). Zero is
// the fault-free baseline the other points are normalized against.
var resilienceRates = []float64{0, 1e-4, 5e-4, 1e-3, 5e-3}

// resilienceParams returns the baseline network with the given drop and
// corrupt rates and the recovery NIC enabled. A rate-zero ladder point
// keeps Fault == nil so it is byte-identical (cache key included) to the
// fault-free baseline.
func resilienceParams(rate float64) core.NetworkParams {
	p := core.Baseline()
	if rate == 0 {
		return p
	}
	p.Fault = &fault.Params{
		DropRate:    rate,
		CorruptRate: rate,
		Timeout:     500,
		MaxRetries:  6,
		RetryCap:    8,
	}
	return p
}

func resilienceSweep(c *ctx) error {
	phases := goldenPhases
	if c.full {
		phases = core.OpenLoopOpts{}
	}
	load := 0.2
	b := c.scale(goldenB, 1000)

	n := len(resilienceRates)
	specs := make([]core.ExperimentSpec, 2*n) // open-loop runs, then batch runs
	for i, r := range resilienceRates {
		p := resilienceParams(r)
		specs[i], specs[n+i] = openLoopSpec(p, load, phases), core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: 4}
	}
	res, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return err
	}
	bts, err := batches(specs[n:], res[n:])
	if err != nil {
		return err
	}

	lat := stats.NewFigure("Resilience: open-loop latency vs fault rate (load 0.2, recovery NIC on)",
		"fault rate (per link traversal)", "latency (cycles)")
	avg := lat.AddSeries("avg latency")
	p99 := lat.AddSeries("p99 latency")
	for i, r := range resilienceRates {
		avg.Add(r, res[i].OpenLoop.AvgLatency)
		p99.Add(r, res[i].OpenLoop.P99)
	}
	if err := c.writeFigure("resilience_openloop", lat); err != nil {
		return err
	}

	deg := stats.NewFigure("Resilience: degradation vs fault rate",
		"fault rate (per link traversal)", "delivered fraction / p99 inflation / normalized batch runtime")
	df := deg.AddSeries("delivered fraction (open-loop)")
	infl := deg.AddSeries("p99 inflation (open-loop)")
	rt := deg.AddSeries("batch runtime (normalized)")
	baseP99, baseT := res[0].OpenLoop.P99, float64(bts[0].Runtime)
	for i, r := range resilienceRates {
		frac := 1.0
		if fs := res[i].OpenLoop.Faults; fs != nil {
			frac = fs.DeliveredFraction
		}
		df.Add(r, frac)
		if baseP99 > 0 {
			infl.Add(r, res[i].OpenLoop.P99/baseP99)
		}
		rt.Add(r, float64(bts[i].Runtime)/baseT)
	}
	return c.writeFigure("resilience_degradation", deg)
}
