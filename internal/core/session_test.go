package core

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"noceval/internal/obs"
)

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
	if _, err := runSpec(context.Background(), openLoopSpec(fastParams(), 0.1, fastOpts)); err != nil {
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
	if _, on := CacheStats(); on || screenOn.Load() || LedgerAppends() != 0 {
		t.Error("Close left the cache, screening or ledger on")
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
	}
	if err := EnableLedger(s.Ledger); err != nil { // make the path a file
		t.Fatal(err)
	}
	if err := DisableLedger(); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err == nil {
		s.Close(&bytes.Buffer{})
		t.Fatal("Open succeeded with a cache directory under a regular file")
	}
	if runLedger.Load() != nil {
		t.Error("failed Open left the ledger enabled")
	}
}
