package core

import (
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"noceval/internal/expcache"
	"noceval/internal/obs/ledger"
	"noceval/internal/openloop"
)

// kneeSweeps runs the two sweeps of the repo benchmark's sweep_knee
// workload (mesh8x8, DOR, seed 1, phases 1000/3000/10000; uniform on a
// 0.05 grid, transpose on a 0.07 grid, ten rates each) at the given
// GOMAXPROCS in a session with a fresh experiment cache and ledger. It returns the
// curves, and the cache entry and ledger records of transpose 0.28.
func kneeSweeps(t *testing.T, procs int) (curves [][]*openloop.Result, cached bool, recs []ledger.Record) {
	t.Helper()
	dir := t.TempDir()
	sess := &Session{Ledger: filepath.Join(dir, "runs.jsonl"), Cache: true, CacheDir: filepath.Join(dir, "cache")}
	ctx := openSession(t, sess)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	p := Baseline()
	p.Shards = 0
	opts := OpenLoopOpts{Warmup: 1000, Measure: 3000, DrainLimit: 10000, Ctx: ctx}
	var key openLoopKey
	for _, sw := range []struct {
		pattern string
		step    float64
	}{{"uniform", 0.05}, {"transpose", 0.07}} {
		q := p
		q.Pattern = sw.pattern
		rates := make([]float64, 10)
		for i := range rates {
			rates[i] = sw.step * float64(i+1)
		}
		res, err := OpenLoopSweepWith(q, rates, opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d, %s sweep: %v", procs, sw.pattern, err)
		}
		curves = append(curves, res)
		key = openLoopKey{Params: q.cacheNorm(), Rate: rates[3], Warmup: 1000, Measure: 3000, Drain: 10000}
	}

	k, err := expcache.KeyFor(CacheSchemaVersion, "openloop", key)
	if err != nil {
		t.Fatal(err)
	}
	cached = sess.exp.Load().Get(k, new(openloop.Result))
	if err := sess.Close(io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, r := range readLedger(t, sess.Ledger) {
		if r.Spec == k.Hash() {
			recs = append(recs, r)
		}
	}
	return curves, cached, recs
}

// TestSweepKneeCancelsDiscardedRates: what a sweep returns does not depend
// on its wave width, and the rate a wave discards is cancelled. At
// GOMAXPROCS 2 the transpose sweep launches {0.21, 0.28} together, 0.21 is
// the first unstable rate (accepted ≈ 0.185 < 0.9 × 0.21 when its window
// closes), and 0.28 must come back cancelled: no cache entry, and one
// ledger record whose error names the sweep's cause. The cancellation
// races the wall clock — 0.28 would have to finish its thousands of
// saturated cycles before 0.21 reaches cycle 4 000 — so that part gets
// three tries. The test is skipped under the race detector: its slowdown
// skews that timing and stretches the five sweeps to over a minute.
// TestSweepCancelsRatesAboveUnstable drives the same cancellation through
// concurrent runs deterministically, and runs under -race.
func TestSweepKneeCancelsDiscardedRates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the sweep_knee sweeps at three wave widths")
	}
	if raceEnabled {
		t.Skip("wall-clock cancellation timing and minutes of sweeps under the race detector")
	}
	want, _, _ := kneeSweeps(t, 1)
	if got := want[1]; len(got) != 3 || got[2].Stable {
		t.Fatalf("transpose reported %d points; want 0.07 and 0.14 stable, 0.21 unstable", len(got))
	}
	for _, procs := range []int{2, 4} {
		got, _, _ := kneeSweeps(t, procs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d returned different curves than GOMAXPROCS 1", procs)
		}
	}
	for try := 1; ; try++ {
		_, cached, recs := kneeSweeps(t, 2)
		cancelled := len(recs) == 1 && strings.Contains(recs[0].Err, "sweep discarded")
		if cancelled && !cached {
			t.Logf("transpose 0.28: %s", recs[0].Err)
			return
		}
		if try == 3 {
			t.Fatalf("transpose 0.28 at GOMAXPROCS 2: cached %v, ledger records %+v; want it cancelled by the sweep, uncached", cached, recs)
		}
		t.Logf("try %d: transpose 0.28 finished before 0.21 proved unstable; retrying", try)
	}
}
