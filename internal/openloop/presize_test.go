package openloop

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

var updatePresize = flag.Bool("update-presize", false, "rewrite testdata/presize_results.json from this tree")

// presizeCases are the ways a run reaches its samples — a single
// Bernoulli class and a class mix, each sized once from the offered load
// (the mix per class as well) — and the shapes of injection process the
// open-loop source draws ahead of the network: single flits at the
// idle_openloop workload's rate, a permutation, a hotspot, a three-class
// mix with its own pattern and sizes per class, a faulted run with the
// recovery NIC armed, a run that ends inside its first chunk and one that
// spans more chunks than are in flight, several of them closed by capacity.
// Every case but "single flits" and "transpose" draws a random size and a
// random destination for each packet, so drawing them in the other order
// moves its result; in those two, one of the draws takes no randomness.
func presizeCases() map[string]Config {
	mesh := func(k int, rc router.Config) network.Config {
		return network.Config{Topo: topology.NewMesh(k, k), Routing: routing.DOR{}, Router: rc, Seed: 11}
	}
	net := func(rc router.Config) network.Config { return mesh(4, rc) }
	base := router.Config{VCs: 2, BufDepth: 4, Delay: 1}
	sizes := traffic.DefaultBimodal()
	faulted := net(base)
	faulted.Fault = &fault.Params{DropRate: 0.01, Timeout: 200, MaxRetries: 8, Seed: 3}
	return map[string]Config{
		"bernoulli": {Net: net(base), Sizes: sizes, Rate: 0.15, Warmup: 500, Measure: 4000, Seed: 5},
		"classes": {Net: net(router.Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: 2}), Sizes: sizes,
			Rate: 0.15, Warmup: 500, Measure: 4000, Seed: 5,
			Classes: []traffic.Class{{Name: "hi", Share: 0.25}, {Name: "lo", Share: 0.75}}},
		"single flits": {Net: mesh(8, base), Sizes: traffic.FixedSize(1), Rate: 0.02, Warmup: 500, Measure: 4000, Seed: 5},
		"transpose": {Net: net(base), Pattern: traffic.Transpose{}, Sizes: sizes, Rate: 0.1,
			Warmup: 500, Measure: 4000, Seed: 5},
		"hotspot": {Net: net(base), Pattern: traffic.Hotspot{Hot: 5, Fraction: 0.2}, Sizes: sizes, Rate: 0.05,
			Warmup: 500, Measure: 4000, Seed: 5},
		"three classes": {Net: net(router.Config{VCs: 3, BufDepth: 4, Delay: 1, Classes: 3}), Sizes: sizes,
			Rate: 0.12, Warmup: 500, Measure: 4000, Seed: 5,
			Classes: []traffic.Class{{Name: "a", Share: 0.2},
				{Name: "b", Share: 0.3, Pattern: traffic.Hotspot{Hot: 9, Fraction: 0.3}, Sizes: traffic.Bimodal{Short: 2, Long: 5, PShort: 0.7}},
				{Name: "c", Share: 0.5, Pattern: traffic.Transpose{}}}},
		"faulted nic": {Net: faulted, Sizes: sizes, Rate: 0.1, Warmup: 500, Measure: 4000, Seed: 5},
		"first chunk": {Net: net(base), Sizes: sizes, Rate: 0.2, Warmup: 20, Measure: 80, Seed: 5},
		"many chunks": {Net: mesh(8, base), Sizes: traffic.Bimodal{Short: 1, Long: 2, PShort: 0.9}, Rate: 0.3,
			Warmup: 500, Measure: 3000, Seed: 5},
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

	// The chunk cases keep their shapes: the first ends before its first
	// chunk would, and the other outlasts the chunks in flight while its
	// expected load overflows a chunk before chunkCycles, so it closes
	// chunks by capacity.
	if end := got["first chunk"].EndCycle; end >= chunkCycles {
		t.Errorf("first chunk: the run ends at cycle %d, past its first chunk", end)
	}
	many := presizeCases()["many chunks"]
	if end := got["many chunks"].EndCycle; end <= chunksInFlight*chunkCycles {
		t.Errorf("many chunks: the run ends at cycle %d, inside the chunks in flight", end)
	}
	if load := many.Rate / many.Sizes.Mean() * 64 * chunkCycles; load <= maxChunk {
		t.Errorf("many chunks: %.0f injections expected in a chunk's cycles, none closes by capacity", load)
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
