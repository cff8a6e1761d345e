package main

import (
	"testing"

	"noceval/internal/core"
)

// TestAnalyticCorrelationAccuracy is the accuracy gate behind the
// analytic-corr figure: the queueing estimator must track simulation in
// the comfortably pre-saturation region (loads up to 0.75 of the
// predicted knee) on the minimal-routing mesh and torus. The bound is
// deliberately loose — the estimator is a screening model, not a
// replacement simulator — but tight enough to catch a broken waiting-time
// term or a mis-scaled channel load, which show up as order-of-magnitude
// errors.
func TestAnalyticCorrelationAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six open-loop points")
	}
	configs := []corrConfig{}
	for _, c := range corrConfigs() {
		if c.name == "mesh8x8/dor" || c.name == "torus8x8/dor" {
			configs = append(configs, c)
		}
	}
	if len(configs) != 2 {
		t.Fatalf("expected mesh and torus configs, got %d", len(configs))
	}
	pts, err := fastCtx(t).corrPoints(configs, []float64{0.25, 0.5, 0.7},
		core.OpenLoopOpts{Warmup: 1000, Measure: 2000, DrainLimit: 16000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("only %d stable pre-saturation points, want >= 5", len(pts))
	}
	// Loads stop at 0.7 of the knee: closer in, the simulated curve is far
	// steeper than the M/G/1 one and the comparison degenerates into
	// measuring that steepness (the figure keeps those points; the gate
	// does not). Measured 0.127 here with these phases; 0.25 is ~2x
	// headroom for seed and phase-length sensitivity.
	const bound = 0.25
	mre := meanRelErr(pts)
	t.Logf("pre-saturation mean relative error %.3f over %d points (bound %.2f)", mre, len(pts), bound)
	if mre > bound {
		t.Errorf("pre-saturation mean relative error %.3f exceeds %.2f", mre, bound)
		for _, p := range pts {
			t.Logf("%s rate %.3f: analytic %.2f simulated %.2f (err %.1f%%)",
				p.series, p.rate, p.predicted, p.simulated, 100*p.relErr())
		}
	}
}
