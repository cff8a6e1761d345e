package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"noceval/internal/core"
	"noceval/internal/obs/ledger"
)

// goldenDir is the committed golden-results directory, relative to this
// package (tests run with the package directory as cwd).
const goldenDir = "../../results/golden"

// goldenTol is the per-metric comparison tolerance for each golden CSV.
// Values are loose enough to absorb cross-platform floating-point noise
// (e.g. fused multiply-add differences) yet far tighter than the effect
// of any meaningful change to router timing, allocation, routing, or
// traffic code. Non-numeric cells (headers, labels, blank cells from
// beyond-saturation truncation) must match exactly.
var goldenTol = map[string]struct{ rel, abs float64 }{
	"golden_fig03a.csv": {rel: 0.02, abs: 0.5},  // average latency, cycles
	"golden_fig03b.csv": {rel: 0.02, abs: 0.5},  // average latency, cycles
	"golden_fig04a.csv": {rel: 0.02, abs: 0.02}, // normalized runtime / throughput
	"golden_fig06a.csv": {rel: 0.02, abs: 0.5},  // average latency, cycles
	"golden_corr.csv":   {rel: 0, abs: 0.05},    // correlation coefficients
}

// goldenIDs returns the golden generator ids in deterministic order.
func goldenIDs() []string {
	return []string{"golden_fig03a", "golden_fig03b", "golden_fig04a", "golden_fig06a", "golden_corr"}
}

// TestGoldenFigures regenerates the golden subset (Figs 3a/3b/4a router-
// parameter curves, the Fig 6a topology figure, and the Fig 5 correlation
// table at golden scale) and compares each CSV against results/golden.
// A deliberate change to the simulator must be accompanied by
// `make golden-update` plus a review of the resulting diff; an accidental
// one fails here.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration simulates ~30s of experiments")
	}
	c := &ctx{out: t.TempDir()}
	for _, id := range goldenIDs() {
		if err := generators[id](c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for name, tol := range goldenTol {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatalf("missing golden (run `make golden-update` once): %v", err)
			}
			got, err := os.ReadFile(filepath.Join(c.out, name))
			if err != nil {
				t.Fatal(err)
			}
			compareCSV(t, name, string(got), string(want), tol.rel, tol.abs)
		})
	}
}

// TestGoldenGeneratorsSimulateEachSpecOnce runs every golden generator in
// one ctx, as one `figures -golden` invocation does, with the run ledger
// on, and fails if a run is simulated twice: no simulation record may
// repeat its spec hash, within a generator (tr=1 and q=16 are the same
// network, for one) or across them (golden_fig03a's tr=1 sweep,
// golden_fig03b's q=16 sweep and golden_fig06a's mesh sweep are one spec).
func TestGoldenGeneratorsSimulateEachSpecOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the golden subset")
	}
	c := fastCtx(t)
	path := filepath.Join(c.out, "runs.jsonl")
	if err := core.EnableLedger(path); err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenIDs() {
		before := core.LedgerAppends()
		if err := generators[id](c); err != nil {
			core.DisableLedger()
			t.Fatalf("%s: %v", id, err)
		}
		if core.LedgerAppends() == before {
			t.Errorf("%s wrote no simulation records", id)
		}
	}
	if err := core.DisableLedger(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case "openloop", "batch", "barrier", "exec":
			if seen[r.Spec] {
				t.Errorf("the golden subset simulates %s spec %s twice", r.Kind, r.Spec)
			}
			seen[r.Spec] = true
		}
	}
}

// compareCSV checks got against want cell by cell: numeric cells within
// abs + rel*|want|, everything else byte-exact. Shape differences (rows,
// columns) are regressions too — a shifted saturation point truncates a
// series and must fail.
func compareCSV(t *testing.T, name, got, want string, rel, abs float64) {
	t.Helper()
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d rows, golden has %d\ngot:\n%s\ngolden:\n%s",
			name, len(gotLines), len(wantLines), got, want)
	}
	for row := range wantLines {
		gotCells := strings.Split(gotLines[row], ",")
		wantCells := strings.Split(wantLines[row], ",")
		if len(gotCells) != len(wantCells) {
			t.Fatalf("%s row %d: %d columns, golden has %d\ngot:    %s\ngolden: %s",
				name, row+1, len(gotCells), len(wantCells), gotLines[row], wantLines[row])
		}
		for col := range wantCells {
			g, w := gotCells[col], wantCells[col]
			gv, gerr := strconv.ParseFloat(g, 64)
			wv, werr := strconv.ParseFloat(w, 64)
			if gerr != nil || werr != nil {
				if g != w {
					t.Errorf("%s row %d col %d: %q != golden %q", name, row+1, col+1, g, w)
				}
				continue
			}
			limit := abs + rel*absFloat(wv)
			if diff := absFloat(gv - wv); diff > limit {
				t.Errorf("%s row %d col %d: %g vs golden %g (|diff| %.4g > tolerance %.4g)",
					name, row+1, col+1, gv, wv, diff, limit)
			}
		}
	}
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
