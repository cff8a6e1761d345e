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
	"fmt"

	"noceval/internal/core"
	"noceval/internal/fault"
	"noceval/internal/openloop"
	"noceval/internal/par"
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

	type point struct {
		ol *openloop.Result
		bt float64 // batch runtime
	}
	pts := make([]point, len(resilienceRates))
	if err := par.Parallel(len(resilienceRates), 0, func(i int) error {
		p := resilienceParams(resilienceRates[i])
		ol, err := core.OpenLoopWith(p, load, phases)
		if err != nil {
			return err
		}
		br, err := core.Batch(p, core.BatchParams{B: b, M: 4})
		if err != nil {
			return err
		}
		if !br.Completed {
			return fmt.Errorf("resilience batch at rate %g did not complete", resilienceRates[i])
		}
		pts[i] = point{ol: ol, bt: float64(br.Runtime)}
		return nil
	}); err != nil {
		return err
	}

	lat := stats.NewFigure("Resilience: open-loop latency vs fault rate (load 0.2, recovery NIC on)",
		"fault rate (per link traversal)", "latency (cycles)")
	avg := lat.AddSeries("avg latency")
	p99 := lat.AddSeries("p99 latency")
	for i, r := range resilienceRates {
		avg.Add(r, pts[i].ol.AvgLatency)
		p99.Add(r, pts[i].ol.P99)
	}
	if err := c.writeFigure("resilience_openloop", lat); err != nil {
		return err
	}

	deg := stats.NewFigure("Resilience: degradation vs fault rate",
		"fault rate (per link traversal)", "delivered fraction / p99 inflation / normalized batch runtime")
	df := deg.AddSeries("delivered fraction (open-loop)")
	infl := deg.AddSeries("p99 inflation (open-loop)")
	rt := deg.AddSeries("batch runtime (normalized)")
	baseP99, baseT := pts[0].ol.P99, pts[0].bt
	for i, r := range resilienceRates {
		frac := 1.0
		if fs := pts[i].ol.Faults; fs != nil {
			frac = fs.DeliveredFraction
			if baseP99 > 0 {
				fs.P99Inflation = pts[i].ol.P99 / baseP99
			}
		}
		df.Add(r, frac)
		if baseP99 > 0 {
			infl.Add(r, pts[i].ol.P99/baseP99)
		}
		rt.Add(r, pts[i].bt/baseT)
	}
	return c.writeFigure("resilience_degradation", deg)
}
