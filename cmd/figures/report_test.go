package main

import (
	"path/filepath"
	"strings"
	"testing"

	"noceval/internal/obs/ledger"
)

// TestReportCountsSweepDiscardsApart: a run the sweep cancelled because a
// lower rate of its wave was already unstable is counted in the discarded
// column, not as an error; a run that failed for any other reason,
// cancellation by the user included, is still an error.
func TestReportCountsSweepDiscardsApart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ledger.Record{
		{Kind: "openloop", Cycles: 4100},
		{Kind: "openloop", Err: "openloop: run canceled at cycle 4097: openloop: sweep discarded this rate: a lower rate of its wave is unstable"},
		{Kind: "openloop", Err: "openloop: run canceled at cycle 2049: openloop: sweep discarded this rate: a lower rate of its wave is unstable"},
		{Kind: "openloop", Err: "openloop: run canceled at cycle 1025: context canceled"},
		{Kind: "batch", Err: "closedloop: batch size B must be >= 1, got 0"},
	} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeReport(&b, path); err != nil {
		t.Fatal(err)
	}
	// kind, runs, cache hits, hit rate, errors, discarded, ...
	want := map[string][]string{
		"openloop": {"openloop", "4", "0/0", "-", "1", "2"},
		"batch":    {"batch", "1", "0/0", "-", "1", "0"},
	}
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || want[f[0]] == nil {
			continue
		}
		if got := f[:6]; strings.Join(got, " ") != strings.Join(want[f[0]], " ") {
			t.Errorf("row %q, want it to begin %q", line, strings.Join(want[f[0]], " "))
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Errorf("report has no row for %v:\n%s", want, b.String())
	}
}
