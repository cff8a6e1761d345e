package analytic

import (
	"math"
	"testing"

	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

func twoClassEstimator(t *testing.T) *PriorityEstimator {
	t.Helper()
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	e, err := m.NewPriorityEstimator([]traffic.Class{
		{Name: "hi", Share: 0.3, Pattern: traffic.Uniform{}, Sizes: traffic.FixedSize(1)},
		{Name: "lo", Share: 0.7, Pattern: traffic.Uniform{}, Sizes: traffic.FixedSize(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPriorityProtection checks the defining property of strict priority:
// the high-priority class's latency stays near its zero-load value at loads
// where the low-priority class has already diverged.
func TestPriorityProtection(t *testing.T) {
	e := twoClassEstimator(t)
	if e.NumClasses() != 2 || e.ClassName(0) != "hi" || e.ClassName(1) != "lo" {
		t.Fatalf("class mix not compiled: %d classes", e.NumClasses())
	}
	// The high class sees only 30% of the offered load, so it saturates at
	// satLo/0.3 — strictly later than the low class, which sees all of it.
	if e.SatRate(0) <= e.SatRate(1) {
		t.Errorf("high-priority SatRate %v not above low-priority %v", e.SatRate(0), e.SatRate(1))
	}
	for _, r := range []float64{0.1, 0.2, 0.3} {
		hi, lo := e.Latency(0, r), e.Latency(1, r)
		if hi >= lo {
			t.Errorf("at rate %g: high-priority latency %v not below low-priority %v", r, hi, lo)
		}
	}
	// Just below the low class's divergence the high class is still finite
	// and close to unloaded.
	r := e.SatRate(1) * 0.999
	if lo := e.Latency(1, r); !(lo > 10*e.T0(1)) && !math.IsInf(lo, 1) {
		t.Errorf("low-priority latency %v at %g not diverging", lo, r)
	}
	if hi := e.Latency(0, r); math.IsInf(hi, 1) || hi > 3*e.T0(0) {
		t.Errorf("high-priority latency %v at %g lost its protection (T0 %v)", hi, r, e.T0(0))
	}
}

// TestPriorityKneeOrdering: each class's knee lies below its SatRate, and
// the high-priority knee is beyond the low-priority one.
func TestPriorityKneeOrdering(t *testing.T) {
	e := twoClassEstimator(t)
	k0, k1 := e.Knee(0, 3), e.Knee(1, 3)
	if !(k1 > 0 && k1 < e.SatRate(1)) {
		t.Errorf("low knee %v outside (0, %v)", k1, e.SatRate(1))
	}
	if !(k0 > k1) {
		t.Errorf("high knee %v not beyond low knee %v", k0, k1)
	}
}

// TestPriorityDeterminism: compiling the estimator twice yields identical
// curves (map iteration order must not leak into results).
func TestPriorityDeterminism(t *testing.T) {
	a, b := twoClassEstimator(t), twoClassEstimator(t)
	rates := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	for c := 0; c < 2; c++ {
		ca, cb := a.Curve(c, rates), b.Curve(c, rates)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("class %d point %d differs: %+v vs %+v", c, i, ca[i], cb[i])
			}
		}
	}
}
