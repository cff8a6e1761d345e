package core

import (
	"io"
	"path/filepath"
	"testing"
)

// TestLedgerMatchesCacheStats runs the same sweep cold and warm with both
// the ledger and the experiment cache enabled, then cross-checks the two:
// the ledger's per-record cache outcomes must agree with the cache's own
// counters, and the engine split must appear only on computed runs.
func TestLedgerMatchesCacheStats(t *testing.T) {
	dir := t.TempDir()
	sess := &Session{Ledger: filepath.Join(dir, "runs.jsonl"), Cache: true, CacheDir: filepath.Join(dir, "cache")}
	ctx := openSession(t, sess)

	p := Table2Network(1)
	rates := []float64{0.05, 0.1}
	// Both rates are stable with this window, so the sweep reports and
	// caches both; with a 300-cycle window 0.05 reads unstable and the
	// sweep may cancel 0.1, which is then neither cached nor error-free.
	opts := OpenLoopOpts{Warmup: 200, Measure: 1000, DrainLimit: 3000, Ctx: ctx}
	for pass := 0; pass < 2; pass++ { // cold, then warm
		if _, err := OpenLoopSweepWith(p, rates, opts); err != nil {
			t.Fatal(err)
		}
	}

	stats := sess.exp.Load().Stats()
	if err := sess.Close(io.Discard); err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t, sess.Ledger)
	if want := 2 * len(rates); len(recs) != want {
		t.Fatalf("ledger has %d records, want %d (cold + warm sweep)", len(recs), want)
	}

	var hits, misses int64
	specs := map[string]int{}
	for _, r := range recs {
		if r.Kind != "openloop" {
			t.Errorf("record kind = %q, want openloop", r.Kind)
		}
		if !r.Cached {
			t.Errorf("record %+v not marked as cache-consulted", r)
		}
		if r.Spec == "" {
			t.Errorf("record missing spec hash: %+v", r)
		}
		specs[r.Spec]++
		if r.Err != "" {
			t.Errorf("record carries error: %s", r.Err)
		}
		if r.Hit {
			hits++
			if r.Stepped != 0 || r.Skipped != 0 {
				t.Errorf("cache hit has an engine split: %+v", r)
			}
		} else {
			misses++
			if r.Stepped == 0 {
				t.Errorf("computed run has no stepped cycles: %+v", r)
			}
			if r.Cycles == 0 {
				t.Errorf("computed run has no simulated cycles: %+v", r)
			}
		}
	}
	// The acceptance check of the issue: the ledger's hit count must match
	// the cache's own statistics exactly.
	if hits != stats.Hits {
		t.Errorf("ledger hits = %d, cache stats hits = %d", hits, stats.Hits)
	}
	if misses != stats.Misses {
		t.Errorf("ledger misses = %d, cache stats misses = %d", misses, stats.Misses)
	}
	// Cold and warm executions of the same point must share a spec hash —
	// that is what makes ledger lines joinable against cache entries.
	if len(specs) != len(rates) {
		t.Errorf("ledger has %d distinct specs, want %d", len(specs), len(rates))
	}
	for spec, n := range specs {
		if n != 2 {
			t.Errorf("spec %s appears %d times, want 2 (one cold, one warm)", spec, n)
		}
	}
}

// TestLedgerDisabledIsFree checks that with no ledger in the session and
// no default registry installed, beginRun short-circuits to nil.
func TestLedgerDisabledIsFree(t *testing.T) {
	if s := defaultSession.beginRun("openloop", struct{}{}); s != nil {
		t.Fatal("beginRun should return nil with ledger and registry both off")
	}
	// And the nil scope is a no-op end to end.
	var s *runScope
	if onEngine, inspect := s.hooks(); onEngine != nil || inspect != nil {
		t.Fatal("nil scope handed out run hooks")
	}
	s.finish(summary{cycles: 123}, true, true, nil)
	if defaultSession.led.Load().Appends() != 0 {
		t.Fatal("nil scope appended to a ledger")
	}
}
