package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"noceval/internal/expcache"
	"noceval/internal/obs"
	"noceval/internal/obs/ledger"
	"noceval/internal/workload"
)

// withLedger opens a fresh run ledger in the default session for the test
// and returns a reader that closes it and decodes everything appended.
func withLedger(t *testing.T) func() []ledger.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defaultSession.led.Store(l)
	t.Cleanup(func() { defaultSession.led.CompareAndSwap(l, nil); l.Close() })
	return func() []ledger.Record {
		t.Helper()
		defaultSession.led.CompareAndSwap(l, nil)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return readLedger(t, path)
	}
}

// runKinds is one small spec per cached kind.
var runKinds = []struct {
	kind string
	spec ExperimentSpec
}{
	{"openloop", openLoopSpec(fastParams(), 0.1, fastOpts)},
	{"batch", ExperimentSpec{Kind: "batch", Network: fastParams(), B: 20, M: 2}},
	{"barrier", ExperimentSpec{Kind: "barrier", Network: fastParams(), B: 20, Phases: 2}},
	{"exec", ExperimentSpec{Kind: "exec", Network: Table2Network(1), Benchmark: "blackscholes",
		Clock: workload.Clock75MHz.SpecName(), Seed: 3}},
}

// TestExecuteOneRecordPerRun pins the single run path: whatever the kind
// and whatever the cache does, one call is one ledger record with the
// cache outcome on it, one runs_started and one runs_finished.
func TestExecuteOneRecordPerRun(t *testing.T) {
	for _, rk := range runKinds {
		t.Run(rk.kind, func(t *testing.T) {
			reg := obs.NewRegistry()
			obs.SetDefault(reg)
			t.Cleanup(func() { obs.SetDefault(nil) })
			read := withLedger(t)

			if _, err := runSpec(context.Background(), rk.spec); err != nil { // cache off
				t.Fatal(err)
			}
			withCache(t)
			for pass := 0; pass < 2; pass++ { // cold, warm
				if _, err := runSpec(context.Background(), rk.spec); err != nil {
					t.Fatal(err)
				}
			}
			if st, _ := CacheStats(); st.Puts != 1 || st.Hits != 1 {
				t.Errorf("cache stats %+v, want 1 put (cold) and 1 hit (warm)", st)
			}

			recs := read()
			want := []struct{ cached, hit bool }{{false, false}, {true, false}, {true, true}}
			if len(recs) != len(want) {
				t.Fatalf("%d ledger records for %d runs", len(recs), len(want))
			}
			for i, r := range recs {
				if r.Kind != rk.kind || r.Cached != want[i].cached || r.Hit != want[i].hit {
					t.Errorf("record %d = kind %q cached %v hit %v, want %q %v %v",
						i, r.Kind, r.Cached, r.Hit, rk.kind, want[i].cached, want[i].hit)
				}
				if r.Spec == "" || r.Spec != recs[0].Spec {
					t.Errorf("record %d spec %q, want the non-empty hash of record 0 (%q)", i, r.Spec, recs[0].Spec)
				}
				if r.Err != "" {
					t.Errorf("record %d carries error %q", i, r.Err)
				}
			}
			started, finished := reg.Counter("core.runs_started").Value(), reg.Counter("core.runs_finished").Value()
			if started != 3 || finished != 3 {
				t.Errorf("runs_started %d, runs_finished %d, want 3 and 3", started, finished)
			}
		})
	}
}

// TestCanceledRunsNeverCached: a cancelled run of any kind fails with the
// context's cause, still writes its one record, and stores nothing.
func TestCanceledRunsNeverCached(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rk := range runKinds {
		t.Run(rk.kind, func(t *testing.T) {
			withCache(t)
			read := withLedger(t)
			if _, err := runSpec(ctx, rk.spec); !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled in its chain", err)
			}
			if st, _ := CacheStats(); st.Puts != 0 || st.Misses != 1 {
				t.Errorf("cache stats %+v, want 1 miss and no put", st)
			}
			if recs := read(); len(recs) != 1 || recs[0].Err == "" || recs[0].Hit {
				t.Errorf("ledger %+v, want one record carrying the error", recs)
			}
		})
	}
}

// TestObservedRunsBypassCache: a run with hooks attached never touches the
// cache, yet its ledger record carries the same spec hash as the unobserved
// run of the same configuration; without hooks the run is cached.
func TestObservedRunsBypassCache(t *testing.T) {
	runs := []struct {
		kind string
		spec ExperimentSpec
	}{
		{"openloop", openLoopSpec(fastParams(), 0.1, fastOpts)},
		{"batch", ExperimentSpec{Kind: "batch", Network: fastParams(), B: 20, M: 2}},
	}
	for _, r := range runs {
		t.Run(r.kind, func(t *testing.T) {
			withCache(t)
			read := withLedger(t)
			observed := r.spec
			observed.Hooks = Hooks{Obs: obs.NewObserver(obs.Options{Metrics: true})}
			if _, err := runSpec(context.Background(), observed); err != nil {
				t.Fatal(err)
			}
			if st, _ := CacheStats(); st != (expcache.Stats{}) {
				t.Fatalf("observed run touched the cache: %+v", st)
			}
			if _, err := runSpec(context.Background(), r.spec); err != nil {
				t.Fatal(err)
			}
			if st, _ := CacheStats(); st.Puts != 1 {
				t.Fatalf("zero-hook run skipped the cache: %+v", st)
			}
			recs := read()
			if len(recs) != 2 {
				t.Fatalf("%d ledger records for 2 runs", len(recs))
			}
			if recs[0].Cached || recs[0].Spec == "" {
				t.Errorf("observed record = cached %v spec %q, want cached=false and a spec hash", recs[0].Cached, recs[0].Spec)
			}
			if !recs[1].Cached || recs[1].Spec != recs[0].Spec {
				t.Errorf("unobserved record = cached %v spec %q, want cached=true and spec %q",
					recs[1].Cached, recs[1].Spec, recs[0].Spec)
			}
		})
	}
}
