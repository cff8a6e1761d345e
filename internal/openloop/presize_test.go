package openloop

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

var updatePresize = flag.Bool("update-presize", false, "rewrite testdata/presize_results.json from this tree")

// presizeCases are the two ways a run reaches its samples: a single
// Bernoulli class and a class mix, each sized once from the offered load
// (the mix per class as well).
func presizeCases() map[string]Config {
	net := func(rc router.Config) network.Config {
		return network.Config{Topo: topology.NewMesh(4, 4), Routing: routing.DOR{}, Router: rc, Seed: 11}
	}
	base := router.Config{VCs: 2, BufDepth: 4, Delay: 1}
	sizes := traffic.DefaultBimodal()
	return map[string]Config{
		"bernoulli": {Net: net(base), Sizes: sizes, Rate: 0.15, Warmup: 500, Measure: 4000, Seed: 5},
		"classes": {Net: net(router.Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: 2}), Sizes: sizes,
			Rate: 0.15, Warmup: 500, Measure: 4000, Seed: 5,
			Classes: []traffic.Class{{Name: "hi", Share: 0.25}, {Name: "lo", Share: 0.75}}},
	}
}

// TestPresizingIsInvisible requires every Result field of the two cases
// to equal what the tree before pre-sizing produced (testdata/
// presize_results.json was written there), and pins the hint itself: large
// enough that the Bernoulli run did not grow its slices — so their capacity
// is the hint — and within 10 % of what the run needed, which is the RSS
// saving.
func TestPresizingIsInvisible(t *testing.T) {
	got := map[string]*Result{}
	for name, cfg := range presizeCases() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MeasuredPackets == 0 || !res.Stable {
			t.Fatalf("%s: measured %d packets, stable %v", name, res.MeasuredPackets, res.Stable)
		}
		got[name] = res
	}
	const golden = "testdata/presize_results.json"
	if *updatePresize {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*Result{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, res := range got {
		// JSON round-trips float64 exactly; encoding got the same way makes
		// nil and empty slices compare alike.
		enc, _ := json.Marshal(res)
		rt := &Result{}
		if err := json.Unmarshal(enc, rt); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rt, want[name]) {
			t.Errorf("%s: result differs from the pre-sizing parent:\n got %s\nwant %+v", name, enc, want[name])
		}
	}

	c := presizeCases()["bernoulli"]
	hint := sampleHint(c.Rate/c.Sizes.Mean(), 16, c.Measure)
	if n := got["bernoulli"].MeasuredPackets; n > hint || float64(hint) > 1.1*float64(n) {
		t.Errorf("bernoulli: hint %d for %d measured packets, want n <= hint <= 1.1 n", hint, n)
	}
	// At any length the hint covers the expected count, with slack that
	// vanishes relative to it, and a probability beyond 1 is a certainty.
	for _, m := range []int64{1, 100, 10000, 1000000} {
		for _, p := range []float64{0.001, 0.1, 1, 3} {
			mean := min(p, 1) * 64 * float64(m)
			if h := float64(sampleHint(p, 64, m)); h < mean || h > mean+4*max(mean, 1)+1 || (mean > 1e5 && h > 1.02*mean) {
				t.Errorf("sampleHint(%g, 64, %d) = %g for a mean of %g", p, m, h, mean)
			}
		}
	}
}
