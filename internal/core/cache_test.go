package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastParams is a small network that keeps cache tests quick.
func fastParams() NetworkParams {
	return NetworkParams{
		Topology:    "mesh4x4",
		VCs:         2,
		BufDepth:    4,
		RouterDelay: 1,
		Routing:     "dor",
		Arb:         "rr",
		Pattern:     "uniform",
		Sizes:       "single",
		Seed:        1,
	}
}

var fastOpts = OpenLoopOpts{Warmup: 300, Measure: 500, DrainLimit: 5000}

// openLoopSpec is the spec of one open-loop point at o's phases.
func openLoopSpec(p NetworkParams, rate float64, o OpenLoopOpts) ExperimentSpec {
	return ExperimentSpec{Kind: "openloop", Network: p, Rate: rate,
		Warmup: o.Warmup, Measure: o.Measure, DrainLimit: o.DrainLimit}
}

// runSpec validates s and runs it under ctx outside any run set: the
// path RunContext takes, returning the result instead of the report.
func runSpec(ctx context.Context, s ExperimentSpec) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.run(ctx)
}

// withCache enables a fresh cache in the default session for the test and
// disables it on cleanup.
func withCache(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cache")
	if err := EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(DisableCache)
	return dir
}

// asJSON is the byte-level identity used by the guard tests: two results
// are "the same experiment outcome" iff their canonical encodings match.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCacheHitMissRoundTrip(t *testing.T) {
	withCache(t)

	cold, err := runSpec(context.Background(), openLoopSpec(fastParams(), 0.1, fastOpts))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := CacheStats()
	if !ok || s.Misses != 1 || s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("after cold run: stats %+v, want 1 miss / 1 put", s)
	}

	warm, err := runSpec(context.Background(), openLoopSpec(fastParams(), 0.1, fastOpts))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ = CacheStats(); s.Hits != 1 {
		t.Fatalf("after warm run: stats %+v, want 1 hit", s)
	}
	if asJSON(t, cold) != asJSON(t, warm) {
		t.Error("warm result differs from cold result")
	}

	// A different seed is a different experiment: no false hit.
	p2 := fastParams()
	p2.Seed = 2
	other, err := runSpec(context.Background(), openLoopSpec(p2, 0.1, fastOpts))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ = CacheStats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("seed change aliased a cache entry: stats %+v", s)
	}
	if asJSON(t, other) == asJSON(t, cold) {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestCacheCorruptedEntryFallsBackToRecompute(t *testing.T) {
	dir := withCache(t)

	first, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: fastParams(), B: 20, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			entries = append(entries, path)
		}
		return err
	})
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written (err=%v)", err)
	}
	for _, p := range entries {
		if err := os.WriteFile(p, []byte("{truncated garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: fastParams(), B: 20, M: 2})
	if err != nil {
		t.Fatalf("corrupted cache entry surfaced as error: %v", err)
	}
	if asJSON(t, first) != asJSON(t, second) {
		t.Error("recomputed result differs after corruption")
	}
	if s, _ := CacheStats(); s.Drops == 0 {
		t.Errorf("corrupted entry not dropped: stats %+v", s)
	}

	// And the recomputed value must be re-stored and hittable.
	if _, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: fastParams(), B: 20, M: 2}); err != nil {
		t.Fatal(err)
	}
	if s, _ := CacheStats(); s.Hits == 0 {
		t.Errorf("recomputed entry not restored: stats %+v", s)
	}
}

// TestCachedMatchesUncached is the determinism contract behind the whole
// cache: for the same seed, a cached replay must be byte-identical to a
// fresh simulation for every cached experiment kind.
func TestCachedMatchesUncached(t *testing.T) {
	p := fastParams()
	DisableCache()
	olBase, err := runSpec(context.Background(), openLoopSpec(p, 0.15, fastOpts))
	if err != nil {
		t.Fatal(err)
	}
	batchBase, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: p, B: 30, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	barrierBase, err := Barrier(p, 30, 2)
	if err != nil {
		t.Fatal(err)
	}

	withCache(t)
	for _, pass := range []string{"cold", "warm"} {
		ol, err := runSpec(context.Background(), openLoopSpec(p, 0.15, fastOpts))
		if err != nil {
			t.Fatal(err)
		}
		ba, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: p, B: 30, M: 4})
		if err != nil {
			t.Fatal(err)
		}
		bar, err := Barrier(p, 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		if asJSON(t, ol) != asJSON(t, olBase) {
			t.Errorf("%s cached open-loop differs from uncached", pass)
		}
		if asJSON(t, ba) != asJSON(t, batchBase) {
			t.Errorf("%s cached batch differs from uncached", pass)
		}
		if asJSON(t, bar) != asJSON(t, barrierBase) {
			t.Errorf("%s cached barrier differs from uncached", pass)
		}
	}
	s, _ := CacheStats()
	if s.Hits != 3 || s.Puts != 3 {
		t.Errorf("stats %+v, want 3 puts (cold) + 3 hits (warm)", s)
	}
}

// TestCachedSweepMatchesUncached pins the sweep path: per-point caching
// inside the parallel waves must preserve the early-stop prefix exactly.
func TestCachedSweepMatchesUncached(t *testing.T) {
	p := fastParams()
	p.BufDepth = 2
	rates := []float64{0.1, 0.2, 0.95} // 0.95 saturates a q=2 mesh4x4
	DisableCache()
	base, err := OpenLoopSweepWith(p, rates, fastOpts)
	if err != nil {
		t.Fatal(err)
	}

	withCache(t)
	for _, pass := range []string{"cold", "warm"} {
		got, err := OpenLoopSweepWith(p, rates, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("%s sweep returned %d points, uncached %d", pass, len(got), len(base))
		}
		for i := range got {
			if asJSON(t, got[i]) != asJSON(t, base[i]) {
				t.Errorf("%s sweep point %d differs from uncached", pass, i)
			}
		}
	}
	if last := base[len(base)-1]; last.Stable {
		t.Error("expected the sweep to end on an unstable point (fix the test rates)")
	}
}
