package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"noceval/internal/expcache"
	"noceval/internal/obs"
	"noceval/internal/obs/ledger"
)

// openSession opens s for the test, closes it at cleanup, and returns a
// context whose runs execute in s.
func openSession(t testing.TB, s *Session) context.Context {
	t.Helper()
	if s.Log == nil {
		s.Log = io.Discard
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(io.Discard) })
	return s.bind(context.Background())
}

// readLedger decodes every record of the ledger file at path.
func readLedger(t testing.TB, path string) []ledger.Record {
	t.Helper()
	recs, dropped, err := ledger.ReadFile(path)
	if err != nil || dropped != 0 {
		t.Fatalf("reading ledger: %v (%d dropped lines)", err, dropped)
	}
	return recs
}

// isOff reports whether s holds no cache, no ledger and no screening.
func (s *Session) isOff() bool {
	return s.exp.Load() == nil && s.led.Load() == nil && s.screen.Load() == nil
}

// TestSessionOpenClose drives the set-up every command shares: the
// registry must be live before the cache opens (so cache traffic reaches
// the served metrics), Close reports what Open enabled on the right
// writers, and afterwards every toggle is off again.
func TestSessionOpenClose(t *testing.T) {
	t.Cleanup(func() { obs.SetDefault(nil) })
	dir := t.TempDir()
	var log, out bytes.Buffer
	s := Session{
		Serve:    "127.0.0.1:0",
		Ledger:   filepath.Join(dir, "runs.jsonl"),
		Cache:    true,
		CacheDir: filepath.Join(dir, "cache"),
		Screen:   true,
		Log:      &log,
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(log.String(), "serving live metrics on http://127.0.0.1:") {
		t.Errorf("Open announced %q", log.String())
	}
	spec := openLoopSpec(fastParams(), 0.1, fastOpts)
	if _, err := s.Run(context.Background(), &spec); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("expcache.misses").Value(); got != 1 {
		t.Errorf("expcache.misses = %d in the served registry, want 1 (cache opened before the registry?)", got)
	}
	log.Reset()
	if err := s.Close(&out); err != nil {
		t.Fatal(err)
	}
	wantOut := "experiment cache: 0 hits, 1 misses, 1 writes, 0 dropped entries\n" +
		"screening: simulated 0 of 0 sweep points (skipped 0, refined 0)\n"
	if out.String() != wantOut {
		t.Errorf("Close summary = %q, want %q", out.String(), wantOut)
	}
	if want := "run ledger: 1 records appended to " + s.Ledger + "\n"; log.String() != want {
		t.Errorf("Close log = %q, want %q", log.String(), want)
	}
	if !s.isOff() {
		t.Error("Close left the cache, screening or ledger on")
	}
	if _, on := CacheStats(); on || !defaultSession.isOff() {
		t.Error("the session turned something on in the default session")
	}
}

// TestSessionOpenFailureLeavesNothingOn: a set-up step that fails must not
// leave the earlier ones running.
func TestSessionOpenFailureLeavesNothingOn(t *testing.T) {
	dir := t.TempDir()
	s := Session{
		Ledger:   filepath.Join(dir, "runs.jsonl"),
		Cache:    true,
		CacheDir: filepath.Join(dir, "runs.jsonl", "under-a-file"),
		Screen:   true,
	}
	l, err := ledger.Open(s.Ledger) // make the path a file
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err == nil {
		s.Close(&bytes.Buffer{})
		t.Fatal("Open succeeded with a cache directory under a regular file")
	}
	if !s.isOff() {
		t.Error("failed Open left the cache, screening or ledger on")
	}
}

// The zero Session has everything off, and runs in it touch no cache and
// no ledger.
func TestZeroSessionIsOff(t *testing.T) {
	var s Session
	if !s.isOff() || s.screenPlan(Baseline()) != nil || s.beginRun("openloop", struct{}{}) != nil {
		t.Fatal("a zero Session has something on")
	}
	spec := ExperimentSpec{Kind: "batch", Network: fastParams(), B: 20, M: 2}
	if _, err := s.Run(nil, &spec); err != nil {
		t.Fatal(err)
	}
	if !s.isOff() {
		t.Error("a run turned something on")
	}
}

// Two sessions with ledgers at different paths, run concurrently: each
// ledger records exactly its own session's runs, and the default session
// records none.
func TestSessionLedgersAreSeparate(t *testing.T) {
	dir := t.TempDir()
	sessions := []*Session{
		{Ledger: filepath.Join(dir, "a.jsonl")},
		{Ledger: filepath.Join(dir, "b.jsonl")},
	}
	bs := []int{20, 30}
	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		ctx := openSession(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 1; m <= 2; m++ {
				spec := ExperimentSpec{Kind: "batch", Network: fastParams(), B: bs[i], M: m}
				if _, err := runSpec(ctx, spec); err != nil {
					errs[i] = err
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range sessions {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if err := s.Close(io.Discard); err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for m := 1; m <= 2; m++ {
			want[batchHash(t, bs[i], m)] = true
		}
		recs := readLedger(t, s.Ledger)
		if len(recs) != 2 {
			t.Errorf("ledger %d holds %d records, want its 2 runs", i, len(recs))
		}
		for _, r := range recs {
			if !want[r.Spec] {
				t.Errorf("ledger %d holds run %s of the other session", i, r.Spec)
			}
		}
	}
	if defaultSession.led.Load() != nil {
		t.Error("the default session has a ledger")
	}
}

// batchHash is the run key of the fastParams batch run of b and m.
func batchHash(t *testing.T, b, m int) string {
	t.Helper()
	k, err := expcache.KeyFor(CacheSchemaVersion, "batch", batchKey{Params: fastParams().cacheNorm(), B: b, M: m})
	if err != nil {
		t.Fatal(err)
	}
	return k.Hash()
}

// A screened session and an unscreened one sweep concurrently: the
// screened one's Close counts only its own sweep's points, and the
// unscreened one reports no screening at all.
func TestSessionScreeningIsSeparate(t *testing.T) {
	screened, plain := &Session{Screen: true}, &Session{}
	sctx, pctx := openSession(t, screened), openSession(t, plain)
	rates := []float64{0.1, 0.2, 0.6, 0.7}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	sweep := func(i int, ctx context.Context, rates []float64) {
		defer wg.Done()
		o := quickPhases
		o.Ctx = ctx
		_, errs[i] = OpenLoopSweepWith(Baseline(), rates, o)
	}
	wg.Add(3)
	go sweep(0, sctx, rates)
	go sweep(1, pctx, rates[:3])
	go sweep(2, pctx, rates[1:])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var sout, pout bytes.Buffer
	simulated := screened.screen.Load().simulated.Load()
	if err := screened.Close(&sout); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(&pout); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("simulated %d of %d sweep points", simulated, len(rates))
	if !strings.Contains(sout.String(), want) {
		t.Errorf("screened Close summary = %q, want it to contain %q", sout.String(), want)
	}
	if pout.Len() != 0 {
		t.Errorf("unscreened Close summary = %q, want nothing", pout.String())
	}
}
