package core

import (
	"path/filepath"
	"testing"
	"time"

	"noceval/internal/obs/ledger"
)

// quickPhases keeps the screened-sweep tests fast; the contract under test
// is phase-length independent.
var quickPhases = OpenLoopOpts{Warmup: 500, Measure: 1000, DrainLimit: 8000}

func TestScreenedCoreSweepBitIdentical(t *testing.T) {
	p := Baseline()
	// Bracket the mesh's ~0.4 saturation: the two deep-saturation rates
	// are above any sane analytic cut, so screening has work to do.
	rates := []float64{0.1, 0.2, 0.6, 0.7}
	want, err := OpenLoopSweepWith(p, rates, quickPhases)
	if err != nil {
		t.Fatal(err)
	}

	EnableScreening()
	defer DisableScreening()
	got, err := OpenLoopSweepWith(p, rates, quickPhases)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("screened sweep returned %d results, unscreened %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AvgLatency != want[i].AvgLatency || got[i].Stable != want[i].Stable ||
			got[i].Accepted != want[i].Accepted || got[i].MeasuredPackets != want[i].MeasuredPackets {
			t.Errorf("point %d (rate %.2f) differs under screening", i, rates[i])
		}
	}

	sum := ScreeningSummary()
	if sum.Considered != int64(len(rates)) {
		t.Errorf("considered = %d, want %d", sum.Considered, len(rates))
	}
	if sum.Simulated <= 0 || sum.Simulated > sum.Considered {
		t.Errorf("implausible simulated count %d of %d", sum.Simulated, sum.Considered)
	}
	if sum.Skipped+sum.Simulated < sum.Considered {
		t.Errorf("counters do not cover the sweep: simulated %d + skipped %d < considered %d",
			sum.Simulated, sum.Skipped, sum.Considered)
	}
}

func TestScreenedSweepWritesLedgerRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := EnableLedger(path); err != nil {
		t.Fatal(err)
	}
	EnableScreening()
	defer DisableScreening()
	rates := []float64{0.1, 0.7}
	if _, err := OpenLoopSweepWith(Baseline(), rates, quickPhases); err != nil {
		t.Fatal(err)
	}
	if err := DisableLedger(); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("%d undecodable ledger lines", dropped)
	}
	var sweep *ledger.Record
	for i := range recs {
		if recs[i].Kind == "sweep" {
			sweep = &recs[i]
		}
	}
	if sweep == nil {
		t.Fatal("no kind=sweep record appended for the screened sweep")
	}
	if sweep.ScreenConsidered != len(rates) {
		t.Errorf("record considered = %d, want %d", sweep.ScreenConsidered, len(rates))
	}
	if sweep.ScreenSimulated <= 0 {
		t.Error("record shows no simulations")
	}
	if sweep.Spec == "" {
		t.Error("sweep record missing spec hash")
	}
	// Stamped with the sweep's start, as a run's record is with the run's:
	// no later than any point it simulated.
	start, err := time.Parse(time.RFC3339Nano, sweep.Time)
	if err != nil {
		t.Fatalf("sweep record time %q: %v", sweep.Time, err)
	}
	for _, r := range recs {
		if at, err := time.Parse(time.RFC3339Nano, r.Time); err != nil || at.Before(start) {
			t.Errorf("%s record time %q is not after the sweep's %q", r.Kind, r.Time, sweep.Time)
		}
	}
}

func TestScreeningOffByDefault(t *testing.T) {
	if screenOn.Load() {
		t.Fatal("screening must be off unless explicitly enabled")
	}
	if plan := screenPlan(Baseline()); plan != nil {
		t.Error("screenPlan returned a plan with screening disabled")
	}
}

func TestAnalyticEstimatorFromParams(t *testing.T) {
	est, err := AnalyticEstimator(Baseline())
	if err != nil {
		t.Fatal(err)
	}
	// 8x8 mesh / DOR / uniform: channel bound 0.5, knee below it.
	if est.SatRate < 0.45 || est.SatRate > 0.55 {
		t.Errorf("estimator SatRate = %v, want ~0.5", est.SatRate)
	}
	if k := est.Knee(3); k <= 0 || k >= est.SatRate {
		t.Errorf("knee %v outside (0, %v)", k, est.SatRate)
	}

	bad := Baseline()
	bad.Topology = "hypercube9"
	if _, err := AnalyticEstimator(bad); err == nil {
		t.Error("unknown topology accepted")
	}
}
