package analytic

import (
	"math"
	"sort"
	"testing"

	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

func meshEstimator(t *testing.T) *Estimator {
	t.Helper()
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	e, err := m.NewEstimator(traffic.Uniform{}, traffic.FixedSize(1))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorZeroLoadMatchesModel(t *testing.T) {
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	e := meshEstimator(t)
	want, err := m.ZeroLoadLatency(traffic.Uniform{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.T0-want) > 1e-9 {
		t.Errorf("estimator T0 = %v, model zero-load = %v", e.T0, want)
	}
	if got := e.Latency(0); math.Abs(got-e.T0) > 1e-9 {
		t.Errorf("Latency(0) = %v, want T0 %v", got, e.T0)
	}
}

func TestEstimatorSatRateMatchesChannelBound(t *testing.T) {
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	e := meshEstimator(t)
	bound, _, err := m.ChannelBound(traffic.Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.SatRate-bound) > 1e-9 {
		t.Errorf("estimator SatRate = %v, channel bound = %v", e.SatRate, bound)
	}
	if !math.IsInf(e.Latency(e.SatRate), 1) {
		t.Error("latency at SatRate should be +Inf")
	}
	if !math.IsInf(e.Latency(1), 1) {
		t.Error("latency beyond SatRate should be +Inf")
	}
}

func TestEstimatorLatencyMonotone(t *testing.T) {
	e := meshEstimator(t)
	prev := 0.0
	for _, r := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.45} {
		l := e.Latency(r)
		if l <= prev {
			t.Fatalf("latency not increasing: T(%v) = %v after %v", r, l, prev)
		}
		if math.IsInf(l, 1) {
			t.Fatalf("latency at %v (below SatRate %v) is +Inf", r, e.SatRate)
		}
		prev = l
	}
}

func TestEstimatorKnee(t *testing.T) {
	e := meshEstimator(t)
	knee := e.Knee(3)
	if knee <= 0 || knee >= e.SatRate {
		t.Fatalf("knee %v outside (0, SatRate=%v)", knee, e.SatRate)
	}
	// At the knee the predicted latency equals the cap by construction.
	if l := e.Latency(knee); math.Abs(l-3*e.T0) > 0.05*e.T0 {
		t.Errorf("latency at knee = %v, want ~%v", l, 3*e.T0)
	}
	// A tighter cap saturates earlier.
	if k2 := e.Knee(2); k2 >= knee {
		t.Errorf("knee(cap=2) %v not below knee(cap=3) %v", k2, knee)
	}
}

func TestEstimatorDeterministic(t *testing.T) {
	// Map iteration must not leak into the result: two builds of the same
	// model produce bit-identical curves.
	a, b := meshEstimator(t), meshEstimator(t)
	for _, r := range []float64{0.1, 0.25, 0.4} {
		if a.Latency(r) != b.Latency(r) {
			t.Fatalf("estimator not deterministic at rate %v", r)
		}
	}
}

func TestEstimatorBimodalRaisesWaiting(t *testing.T) {
	// Longer, more variable packets mean strictly more queueing at equal
	// flit load (E[S^2] grows), on top of a higher serialization T0.
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	single, err := m.NewEstimator(traffic.Uniform{}, traffic.FixedSize(1))
	if err != nil {
		t.Fatal(err)
	}
	bimodal, err := m.NewEstimator(traffic.Uniform{}, traffic.DefaultBimodal())
	if err != nil {
		t.Fatal(err)
	}
	r := 0.3
	if (bimodal.Latency(r) - bimodal.T0) <= (single.Latency(r) - single.T0) {
		t.Errorf("bimodal queueing delay %v not above single-flit %v",
			bimodal.Latency(r)-bimodal.T0, single.Latency(r)-single.T0)
	}
}

func TestEstimatorRingSaturatesEarly(t *testing.T) {
	// A 64-node ring under uniform traffic is bisection-starved; the
	// estimator must predict saturation far below the mesh's.
	ring := Model{Topo: topology.NewRing(64), Routing: routing.DOR{}, RouterDelay: 1}
	e, err := ring.NewEstimator(traffic.Uniform{}, traffic.FixedSize(1))
	if err != nil {
		t.Fatal(err)
	}
	mesh := meshEstimator(t)
	if e.SatRate >= mesh.SatRate/2 {
		t.Errorf("ring SatRate %v not well below mesh %v", e.SatRate, mesh.SatRate)
	}
	if k := e.Knee(3); k <= 0 || k >= e.SatRate {
		t.Errorf("ring knee %v outside (0, %v)", k, e.SatRate)
	}
}

func TestEstimatorCurve(t *testing.T) {
	e := meshEstimator(t)
	rates := []float64{0.1, 0.3, 0.9}
	pts := e.Curve(rates)
	if len(pts) != 3 {
		t.Fatalf("curve has %d points", len(pts))
	}
	if pts[0].MaxUtil >= pts[1].MaxUtil {
		t.Error("utilization not increasing along the curve")
	}
	if !math.IsInf(pts[2].Latency, 1) {
		t.Error("curve point beyond SatRate should be +Inf")
	}
}

// closedForm is the single-class model written out independently of the
// compiled one: plain Pollaczek–Khinchine waiting per channel, channels
// summed in ascending load order (the arithmetic Estimator had before it
// became a view of PriorityEstimator). It is the reference the one-class
// reduction is held to, so that reduction is not only compared with itself.
func closedForm(t *testing.T, m Model, p traffic.Pattern, sizes traffic.SizeDist) (t0, satRate float64, latency func(float64) float64) {
	t.Helper()
	loads, avgPathCycles, err := m.routeAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	gamma := make([]float64, 0, len(loads))
	for _, g := range loads {
		gamma = append(gamma, g)
	}
	sort.Float64s(gamma)
	n, tr, meanLen := float64(m.Topo.N), float64(m.RouterDelay), sizes.Mean()
	sMean := tr + meanLen
	sSq := tr*tr + 2*tr*meanLen + sizes.(meanSquarer).MeanSquare()
	wait := func(rho float64) float64 { return rho / sMean * sSq / (2 * (1 - rho)) }
	t0 = avgPathCycles + tr + meanLen - 1
	satRate = 1 / (gamma[len(gamma)-1] * n)
	return t0, satRate, func(rate float64) float64 {
		lat := t0 + wait(rate)
		for _, g := range gamma {
			lat += g * wait(g*n*rate)
		}
		return lat
	}
}

// TestPrioritySingleClassMatchesEstimator pins the reduction: the
// one-class priority model behind Estimator reproduces the closed-form
// single-class estimator — T0 and SatRate exactly, latency to the last few
// bits (the compiled model sums channels in key order, the closed form in
// load order) — across topologies, routings and a variable-length size mix.
func TestPrioritySingleClassMatchesEstimator(t *testing.T) {
	topos := []*topology.Topology{topology.NewMesh(8, 8), topology.NewTorus(8, 8), topology.NewRing(16)}
	algs := []routing.Algorithm{routing.DOR{}, routing.Valiant{}}
	mixes := []traffic.SizeDist{traffic.FixedSize(1), traffic.DefaultBimodal()}
	for _, topo := range topos {
		for _, alg := range algs {
			for _, sizes := range mixes {
				m := Model{Topo: topo, Routing: alg, RouterDelay: 1, Seed: 7}
				e, err := m.NewEstimator(traffic.Uniform{}, sizes)
				if err != nil {
					t.Fatal(err)
				}
				name := topo.Name + "/" + alg.Name() + "/" + sizes.Name()
				t0, sat, latency := closedForm(t, m, traffic.Uniform{}, sizes)
				bound, _, err := m.ChannelBound(traffic.Uniform{})
				if err != nil {
					t.Fatal(err)
				}
				if e.T0 != t0 || e.SatRate != sat || e.SatRate != bound {
					t.Errorf("%s: T0 %v SatRate %v, closed form %v %v, channel bound %v", name, e.T0, e.SatRate, t0, sat, bound)
				}
				if fs, ok := sizes.(traffic.FixedSize); ok {
					if zl, _ := m.ZeroLoadLatency(traffic.Uniform{}, int(fs)); e.T0 != zl {
						t.Errorf("%s: T0 %v, ZeroLoadLatency %v", name, e.T0, zl)
					}
				}
				ulps := 0.0
				for _, frac := range []float64{0.1, 0.5, 0.9, 0.99} {
					r := frac * sat
					got, want := e.Latency(r), latency(r)
					if math.Abs(got-want) > 1e-12*want {
						t.Errorf("%s: Latency(%g) = %v, closed form %v", name, r, got, want)
					}
					ulps = max(ulps, math.Abs(float64(int64(math.Float64bits(got))-int64(math.Float64bits(want)))))
				}
				t.Logf("%s: latency within %v ulp of the closed form", name, ulps)
			}
		}
	}
}

// TestEstimatorKneeDoesNotAllocate: the knee bisection evaluates Latency
// 50 times; the per-channel utilization scratch must stay on the stack.
func TestEstimatorKneeDoesNotAllocate(t *testing.T) {
	e := meshEstimator(t)
	if n := testing.AllocsPerRun(10, func() { e.Knee(3) }); n > 1 {
		t.Errorf("Knee allocates %v times per call, want <= 1", n)
	}
}
