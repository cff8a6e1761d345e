package analytic

import (
	"math"
	"testing"

	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

// TestAverageHops checks the destination weights the models read: summed
// against minimal distance they give the known mean route lengths.
func TestAverageHops(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	if got := mustHops(t, mesh, traffic.Uniform{}); math.Abs(got-5.25) > 0.001 {
		t.Errorf("uniform mesh avg hops = %v, want 5.25", got)
	}
	// Bit complement on a mesh: node (x,y) -> (7-x, 7-y); the per-dimension
	// distance |7-2x| averages 4.
	if got := mustHops(t, mesh, traffic.BitComplement{}); math.Abs(got-8) > 0.001 {
		t.Errorf("bitcomp mesh avg hops = %v, want 8", got)
	}
	torus := topology.NewTorus(8, 8)
	if got := mustHops(t, torus, traffic.Uniform{}); math.Abs(got-4) > 0.001 {
		t.Errorf("uniform torus avg hops = %v, want 4", got)
	}
}

// mustHops returns the mean minimal hop count under the pattern's weights.
func mustHops(t *testing.T, topo *topology.Topology, p traffic.Pattern) float64 {
	t.Helper()
	w, err := trafficWeights(p, topo.N)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for s := 0; s < topo.N; s++ {
		for d := 0; d < topo.N; d++ {
			sum += w[s][d] * float64(topo.Distance(s, d))
		}
	}
	return sum / float64(topo.N)
}

// mustZeroLoad and mustBound unwrap the error returns for the formula
// tests, which only use patterns that implement traffic.Weighted.
func mustZeroLoad(t *testing.T, m Model, p traffic.Pattern, flits int) float64 {
	t.Helper()
	got, err := m.ZeroLoadLatency(p, flits)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func mustBound(t *testing.T, m Model, p traffic.Pattern) (float64, float64) {
	t.Helper()
	theta, gamma, err := m.ChannelBound(p)
	if err != nil {
		t.Fatal(err)
	}
	return theta, gamma
}

func TestZeroLoadLatencyFormula(t *testing.T) {
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	// Uniform: 5.25 hops * (1+1) + 1 ejection + 0 serialization = 11.5.
	got := mustZeroLoad(t, m, traffic.Uniform{}, 1)
	if math.Abs(got-11.5) > 0.01 {
		t.Errorf("zero-load latency = %v, want 11.5", got)
	}
	// tr=2: 5.25*3 + 2 = 17.75; ratio 1.543 (the paper's ~1.5).
	m.RouterDelay = 2
	got2 := mustZeroLoad(t, m, traffic.Uniform{}, 1)
	if r := got2 / got; math.Abs(r-1.54) > 0.02 {
		t.Errorf("tr=2/tr=1 analytic ratio = %v, want ~1.54", r)
	}
	// 4-flit packets add 3 cycles of serialization.
	if d := mustZeroLoad(t, m, traffic.Uniform{}, 4) - got2; math.Abs(d-3) > 0.001 {
		t.Errorf("serialization delta = %v, want 3", d)
	}
}

func TestChannelBoundMeshUniform(t *testing.T) {
	m := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	theta, gamma := mustBound(t, m, traffic.Uniform{})
	// Classic result: DOR uniform on an even k-ary 2-mesh is bisection
	// limited at 4/k = 0.5 flits/cycle/node.
	if math.Abs(theta-0.5) > 0.02 {
		t.Errorf("mesh uniform channel bound = %v, want 0.5", theta)
	}
	if gamma <= 0 {
		t.Error("no channel load computed")
	}
}

func TestChannelBoundTorusDoublesMesh(t *testing.T) {
	mesh := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	torus := Model{Topo: topology.NewTorus(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	tm, _ := mustBound(t, mesh, traffic.Uniform{})
	tt, _ := mustBound(t, torus, traffic.Uniform{})
	if r := tt / tm; r < 1.7 || r > 2.3 {
		t.Errorf("torus/mesh capacity ratio = %v, want ~2 (doubled bisection)", r)
	}
}

func TestValiantHalvesUniformCapacity(t *testing.T) {
	dor := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	val := Model{Topo: topology.NewMesh(8, 8), Routing: routing.Valiant{}, RouterDelay: 1, Samples: 32, Seed: 1}
	td, _ := mustBound(t, dor, traffic.Uniform{})
	tv, _ := mustBound(t, val, traffic.Uniform{})
	if r := tv / td; r < 0.4 || r > 0.7 {
		t.Errorf("VAL/DOR uniform capacity ratio = %v, want ~0.5", r)
	}
}

func TestValiantBeatsDORonTransposeTorus(t *testing.T) {
	// On a torus, VAL's load balancing wins on adversarial permutations.
	dor := Model{Topo: topology.NewTorus(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	val := Model{Topo: topology.NewTorus(8, 8), Routing: routing.Valiant{}, RouterDelay: 1, Samples: 32, Seed: 2}
	td, _ := mustBound(t, dor, traffic.Tornado{})
	tv, _ := mustBound(t, val, traffic.Tornado{})
	if tv <= td {
		t.Errorf("VAL tornado capacity %v not above DOR %v", tv, td)
	}
}

func TestVALZeroLoadDoublesPathLength(t *testing.T) {
	dor := Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	val := Model{Topo: topology.NewMesh(8, 8), Routing: routing.Valiant{}, RouterDelay: 1, Samples: 32, Seed: 3}
	ld := mustZeroLoad(t, dor, traffic.Uniform{}, 1)
	lv := mustZeroLoad(t, val, traffic.Uniform{}, 1)
	if r := lv / ld; r < 1.6 || r > 2.2 {
		t.Errorf("VAL/DOR zero-load ratio = %v, want ~2", r)
	}
}

func TestIdealThroughput(t *testing.T) {
	if got := IdealThroughput(topology.NewMesh(8, 8)); math.Abs(got-0.5) > 0.001 {
		t.Errorf("mesh ideal throughput = %v, want 0.5", got)
	}
	if got := IdealThroughput(topology.NewTorus(8, 8)); math.Abs(got-1.0) > 0.001 {
		t.Errorf("torus ideal throughput = %v, want 1.0", got)
	}
}

func TestPermutationWeights(t *testing.T) {
	w, err := trafficWeights(traffic.Transpose{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for s := range w {
		nonzero := 0
		for _, v := range w[s] {
			if v != 0 {
				if v != 1 {
					t.Fatalf("permutation weight = %v", v)
				}
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Fatalf("source %d has %d destinations", s, nonzero)
		}
	}
	wu, err := trafficWeights(traffic.UniformNoSelf{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wu[2][2] != 0 {
		t.Error("no-self weights include self")
	}
	if math.Abs(wu[2][0]-1.0/3) > 1e-12 {
		t.Errorf("no-self weight = %v", wu[2][0])
	}
}

// opaquePattern is a stochastic pattern that does not expose destination
// weights: the analytic model must refuse it rather than silently treating
// one sampled destination as a permutation.
type opaquePattern struct{}

func (opaquePattern) Name() string                    { return "opaque" }
func (opaquePattern) Dest(_ *sim.RNG, src, n int) int { return (src + 1) % n }

func TestUnknownStochasticPatternRejected(t *testing.T) {
	if _, err := trafficWeights(opaquePattern{}, 16); err == nil {
		t.Fatal("trafficWeights accepted a pattern without destination weights")
	}
	m := Model{Topo: topology.NewMesh(4, 4), Routing: routing.DOR{}, RouterDelay: 1}
	if _, err := m.ZeroLoadLatency(opaquePattern{}, 1); err == nil {
		t.Error("ZeroLoadLatency accepted an opaque pattern")
	}
	if _, _, err := m.ChannelBound(opaquePattern{}); err == nil {
		t.Error("ChannelBound accepted an opaque pattern")
	}
	if _, err := m.NewEstimator(opaquePattern{}, traffic.FixedSize(1)); err == nil {
		t.Error("NewEstimator accepted an opaque pattern")
	}
}

func TestHotspotWeights(t *testing.T) {
	w, err := trafficWeights(traffic.Hotspot{Hot: 3, Fraction: 0.2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range w[5] {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("hotspot weights sum to %v", sum)
	}
	if math.Abs(w[5][3]-(0.2+0.8/8)) > 1e-12 {
		t.Errorf("hot-node weight = %v, want %v", w[5][3], 0.2+0.8/8)
	}
}
