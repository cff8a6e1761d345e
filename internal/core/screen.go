package core

// Analytic sweep screening: when enabled, OpenLoopSweepWith compiles the
// queueing estimator of internal/analytic for the sweep's parameters and
// hands its predicted saturation knee to the sweep loop
// (openloop.SweepScreenedWith) as the cut — deep-saturation rates are kept
// out of the speculative parallel waves and only simulated if the sweep
// genuinely reaches them. With screening off the same loop runs uncut.
// Screening decides whether a simulation runs, never what it computes:
// results are bit-identical to the unscreened sweep, and cache keys are
// built from the unscreened run configuration alone, so screened and
// unscreened sessions share the same experiment-cache entries.
//
// Off by default; cmd/figures, cmd/noceval and cmd/nocd enable it via the
// -screen flag.

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"noceval/internal/analytic"
	"noceval/internal/expcache"
	"noceval/internal/obs"
	"noceval/internal/obs/ledger"
	"noceval/internal/openloop"
	"noceval/internal/routing"
	"noceval/internal/topology"
)

var screenOn atomic.Bool

// screenTotals accumulates the process-wide screening outcome across every
// screened sweep since EnableScreening.
var screenTotals struct {
	considered, simulated, skipped, refined atomic.Int64
}

// EnableScreening turns analytic sweep screening on and resets the
// screening counters; DisableScreening turns it off.
func EnableScreening() {
	screenTotals.considered.Store(0)
	screenTotals.simulated.Store(0)
	screenTotals.skipped.Store(0)
	screenTotals.refined.Store(0)
	screenOn.Store(true)
}

// DisableScreening turns analytic sweep screening off.
func DisableScreening() { screenOn.Store(false) }

// ScreenSummary is the cumulative screening outcome since EnableScreening.
type ScreenSummary struct {
	Considered, Simulated, Skipped, Refined int64
}

// ScreeningSummary returns the cumulative screening counters.
func ScreeningSummary() ScreenSummary {
	return ScreenSummary{
		Considered: screenTotals.considered.Load(),
		Simulated:  screenTotals.simulated.Load(),
		Skipped:    screenTotals.skipped.Load(),
		Refined:    screenTotals.refined.Load(),
	}
}

// analyticModel resolves the topology and routing p names into the
// parameters of internal/analytic's formulas. It fails on an unknown
// topology or routing name.
func analyticModel(p NetworkParams) (analytic.Model, error) {
	topo, err := topology.ByName(p.Topology)
	if err != nil {
		return analytic.Model{}, err
	}
	alg, err := routing.ByName(p.Routing)
	if err != nil {
		return analytic.Model{}, err
	}
	return analytic.Model{Topo: topo, Routing: alg, RouterDelay: p.RouterDelay, Seed: p.Seed}, nil
}

// AnalyticEstimator compiles the contention-aware queueing estimator for
// the given parameters (see internal/analytic). It fails when the model
// cannot describe them — an unknown topology or routing name, or a pattern
// that does not expose destination weights.
func AnalyticEstimator(p NetworkParams) (*analytic.Estimator, error) {
	m, err := analyticModel(p)
	if err != nil {
		return nil, err
	}
	pat, err := p.BuildPattern()
	if err != nil {
		return nil, err
	}
	sizes, err := p.BuildSizes()
	if err != nil {
		return nil, err
	}
	return m.NewEstimator(pat, sizes)
}

// AnalyticPriorityEstimator compiles the per-class priority-queueing
// estimator for parameters carrying a QoS class mix (see
// internal/analytic's PriorityEstimator). Classes with empty pattern or
// size names inherit the top-level values, exactly as the simulator does.
func AnalyticPriorityEstimator(p NetworkParams) (*analytic.PriorityEstimator, error) {
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("core: priority estimator needs QoS classes, got none")
	}
	m, err := analyticModel(p)
	if err != nil {
		return nil, err
	}
	classes, err := p.BuildClasses()
	if err != nil {
		return nil, err
	}
	for i := range classes {
		if classes[i].Pattern == nil {
			if classes[i].Pattern, err = p.BuildPattern(); err != nil {
				return nil, err
			}
		}
		if classes[i].Sizes == nil {
			if classes[i].Sizes, err = p.BuildSizes(); err != nil {
				return nil, err
			}
		}
	}
	return m.NewPriorityEstimator(classes)
}

// screenCutMargin widens the predicted saturation knee into the sweep cut.
// The queueing knee slightly underestimates the simulator's saturation
// point on well-buffered networks; the margin keeps the first unstable
// rate inside the parallel waves (mispredictions are still correct either
// way — a too-low cut only costs serial refinement).
const screenCutMargin = 1.1

// screenPlan builds the screening plan for one sweep, or nil — the uncut
// sweep — when screening is off or the analytic model cannot describe p
// (the sweep then runs unscreened rather than failing).
func screenPlan(p NetworkParams) *openloop.Screen {
	if !screenOn.Load() {
		return nil
	}
	est, err := AnalyticEstimator(p)
	if err != nil {
		return nil
	}
	knee := est.Knee(3)
	if knee <= 0 || math.IsInf(knee, 1) || math.IsNaN(knee) {
		return nil
	}
	return &openloop.Screen{Cut: knee * screenCutMargin, Stats: &openloop.ScreenStats{}}
}

// recordScreen folds one screened sweep's outcome into the process totals,
// the metrics registry, and (when enabled) the run ledger as one
// kind="sweep" record keyed by the parameter hash and stamped with the
// sweep's start, as a run's record is with the run's.
func recordScreen(p NetworkParams, st *openloop.ScreenStats, start time.Time) {
	screenTotals.considered.Add(int64(st.Considered))
	screenTotals.simulated.Add(int64(st.Simulated))
	screenTotals.skipped.Add(int64(st.Screened))
	screenTotals.refined.Add(int64(st.Refined))
	reg := obs.Default()
	reg.Counter("screen.considered").Add(int64(st.Considered))
	reg.Counter("screen.simulated").Add(int64(st.Simulated))
	reg.Counter("screen.skipped").Add(int64(st.Screened))
	reg.Counter("screen.refined").Add(int64(st.Refined))
	led := runLedger.Load()
	if led == nil {
		return
	}
	rec := ledger.Record{
		Time:             start.UTC().Format(time.RFC3339Nano),
		Kind:             "sweep",
		Engine:           "activeset",
		ScreenConsidered: st.Considered,
		ScreenSimulated:  st.Simulated,
		ScreenSkipped:    st.Screened,
		ScreenRefined:    st.Refined,
	}
	if k, err := expcache.KeyFor(CacheSchemaVersion, "sweep", p.cacheNorm()); err == nil {
		rec.Spec = k.Hash()
	}
	led.Append(rec)
}
