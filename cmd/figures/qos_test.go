package main

import (
	"context"
	"testing"

	"noceval/internal/analytic"
	"noceval/internal/core"
	"noceval/internal/openloop"
)

// quickQoSOpts are the shortened phases the QoS gates simulate with (same
// scale as the analytic-corr gate).
var quickQoSOpts = core.OpenLoopOpts{Warmup: 2000, Measure: 3000, DrainLimit: 20000}

// qosKneeSweep runs the QoS configuration at the given fractions of the
// low-priority class's predicted knee through a ctx, as the qos figure
// does.
func qosKneeSweep(t *testing.T, fractions []float64) ([]*openloop.Result, *analytic.PriorityEstimator) {
	t.Helper()
	p := qosParams()
	est, err := core.AnalyticPriorityEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := kneeSweep(p, est.Knee(est.NumClasses()-1, 3), fractions, quickQoSOpts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fastCtx(t).runs.RunAll(context.Background(), []core.ExperimentSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Sweep, est
}

// TestQoSPriorityAccuracy is the accuracy gate behind the qos figure: the
// priority-queueing estimator must track the simulated per-class latencies
// in the pre-saturation region (loads up to 0.7 of the low-priority knee)
// on the two-class baseline mesh. The 30% bound is deliberately loose —
// the truncated P-K model ignores flit-level interleaving — but tight
// enough to catch a broken cumulative-load term, which shows up as
// order-of-magnitude errors on the low-priority class.
func TestQoSPriorityAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three open-loop points")
	}
	// Loads are fractions of the lowest-priority class's predicted knee.
	sweep, est := qosKneeSweep(t, []float64{0.25, 0.5, 0.7})
	pts := modelPoints("qos", sweep, est.Latency)
	if len(pts) < 4 {
		t.Fatalf("only %d stable pre-saturation class points, want >= 4", len(pts))
	}
	const bound = 0.30
	mre := meanRelErr(pts)
	t.Logf("pre-saturation per-class mean relative error %.3f over %d points (bound %.2f)", mre, len(pts), bound)
	if mre > bound {
		t.Errorf("per-class mean relative error %.3f exceeds %.2f", mre, bound)
		for _, p := range pts {
			t.Logf("%s rate %.3f: analytic %.2f simulated %.2f (err %.1f%%)",
				p.series, p.rate, p.predicted, p.simulated, 100*p.relErr())
		}
	}
}

// TestQoSPriorityProtection is the qos-smoke gate: at the low-priority
// class's predicted saturation knee, the high-priority class's tail
// latency must stay strictly below the low-priority one's — the whole
// point of per-class VCs with strict-priority arbitration.
func TestQoSPriorityProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates one open-loop point at saturation")
	}
	results, _ := qosKneeSweep(t, []float64{1})
	if len(results) == 0 {
		t.Fatal("no results at the low-priority knee")
	}
	r := results[len(results)-1]
	if len(r.PerClass) != 2 {
		t.Fatalf("expected 2 per-class results, got %d", len(r.PerClass))
	}
	hi, lo := r.PerClass[0], r.PerClass[1]
	t.Logf("at offered %.3f: %s p99 %.1f avg %.2f; %s p99 %.1f avg %.2f",
		r.Rate, hi.Name, hi.P99, hi.AvgLatency, lo.Name, lo.P99, lo.AvgLatency)
	if hi.MeasuredPackets == 0 || lo.MeasuredPackets == 0 {
		t.Fatalf("class starved of measured packets: hi %d, lo %d", hi.MeasuredPackets, lo.MeasuredPackets)
	}
	if !(hi.P99 < lo.P99) {
		t.Errorf("high-priority p99 %.1f not below low-priority p99 %.1f at saturation", hi.P99, lo.P99)
	}
	if !(hi.AvgLatency < lo.AvgLatency) {
		t.Errorf("high-priority avg %.2f not below low-priority avg %.2f at saturation", hi.AvgLatency, lo.AvgLatency)
	}
}
