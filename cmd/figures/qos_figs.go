package main

// QoS figures: per-class latency-load curves of a two-class mix under
// strict-priority arbitration, against the priority-queueing estimator's
// predictions. The figure is the framework's QoS headline: as the offered
// load approaches the low-priority class's saturation, the high-priority
// curve stays flat — the VC partition and strict-priority allocators
// protect it — while the low-priority curve diverges.
//
// The accuracy regression test in qos_test.go gates the same
// configuration through the knee sweeps and modelPoints of
// analytic_figs.go: the figure is the artifact, the test is the gate.

import (
	"context"
	"fmt"
	"math"

	"noceval/internal/core"
	"noceval/internal/stats"
)

func init() {
	register("qos", qosFig)
}

// qosParams is the figure's two-class configuration: latency-critical
// single-flit traffic prioritized over bulk bimodal transfers on the
// baseline mesh, with 4 VCs so each class owns a 2-VC partition.
func qosParams() core.NetworkParams {
	p := core.Baseline()
	p.VCs = 4
	p.Classes = []core.ClassSpec{
		{Name: "latency", Share: 0.3},
		{Name: "bulk", Share: 0.7, Sizes: "bimodal"},
	}
	return p
}

// qosFig renders the per-class latency-load curves: simulated and
// analytic, from near zero load past the low-priority knee, with the
// priority-protection evidence in the notes.
func qosFig(c *ctx) error {
	p := qosParams()
	est, err := core.AnalyticPriorityEstimator(p)
	if err != nil {
		return err
	}
	low := est.NumClasses() - 1
	knee := est.Knee(low, 3)
	// Past the low-priority knee the sweep's early-stop keeps only the
	// first unstable point — exactly the saturation evidence the figure
	// needs.
	spec, err := kneeSweep(p, knee, []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1}, c.phases())
	if err != nil {
		return fmt.Errorf("qos: %w", err)
	}
	res, err := c.runs.RunAll(context.Background(), []core.ExperimentSpec{spec})
	if err != nil {
		return fmt.Errorf("qos: %w", err)
	}
	results := res[0].Sweep

	f := stats.NewFigure("QoS classes under strict priority: per-class latency vs offered load",
		"offered load (flits/cycle/node)", "avg latency (cycles)")
	series := make([]*stats.Series, est.NumClasses())
	model := make([]*stats.Series, est.NumClasses())
	for cls := 0; cls < est.NumClasses(); cls++ {
		series[cls] = f.AddSeries(est.ClassName(cls))
		model[cls] = f.AddSeries(est.ClassName(cls) + " (analytic)")
	}
	for _, r := range results {
		for cls, cr := range r.PerClass {
			series[cls].Add(r.Rate, cr.AvgLatency)
			if pred := est.Latency(cls, r.Rate); !math.IsInf(pred, 1) {
				model[cls].Add(r.Rate, pred)
			}
		}
	}

	last := results[len(results)-1]
	if len(last.PerClass) >= 2 {
		hi, lo := last.PerClass[0], last.PerClass[len(last.PerClass)-1]
		f.Note("at offered %.3f (%.2fx low-priority knee): %s p99 = %.1f, %s p99 = %.1f (stable=%v)",
			last.Rate, last.Rate/knee, hi.Name, hi.P99, lo.Name, lo.P99, last.Stable)
		f.Note("priority protection: the %s class keeps near-zero-load latency while %s saturates", hi.Name, lo.Name)
	}
	f.Note("analytic knees: %s %.3f, %s %.3f (total offered load)",
		est.ClassName(0), est.Knee(0, 3), est.ClassName(low), knee)
	return c.writeFigure("qos_classes", f)
}
