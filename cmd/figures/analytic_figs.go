package main

// Analytic-model figures: the correlation between the contention-aware
// queueing estimator of internal/analytic and full simulation, in the
// style of the paper's Fig 5 model-vs-model scatter. Each point is one
// (configuration, offered load) pair plotted at (analytic latency,
// simulated latency); a perfect model puts every point on y = x. The
// offered loads are deterministic fractions of each configuration's
// predicted saturation knee, so the sweep stays in the pre-saturation
// region where the M/G/1 waiting-time model is meaningful.
//
// The same point set backs the accuracy regression test in
// analytic_corr_test.go: the figure is the artifact, the test is the gate.

import (
	"context"
	"fmt"
	"math"

	"noceval/internal/analytic"
	"noceval/internal/core"
	"noceval/internal/openloop"
	"noceval/internal/stats"
)

func init() {
	register("analytic-corr", analyticCorr)
}

// corrConfig names one network configuration the correlation covers.
type corrConfig struct {
	name string
	p    core.NetworkParams
}

// corrConfigs spans the topologies and routing algorithms the estimator
// models: minimal and randomized routing on the mesh and torus, plus the
// ring where the long average route saturates an order of magnitude
// earlier.
func corrConfigs() []corrConfig {
	mk := func(topo, routing string, vcs int) corrConfig {
		p := core.Baseline()
		p.Topology = topo
		p.Routing = routing
		if vcs > 0 {
			p.VCs = vcs
		}
		return corrConfig{name: topo + "/" + routing, p: p}
	}
	return []corrConfig{
		mk("mesh8x8", "dor", 0),
		mk("torus8x8", "dor", 0),
		mk("ring64", "dor", 0),
		mk("mesh8x8", "val", 4),
		mk("torus8x8", "val", 4),
	}
}

// corrFractions places the sample loads along each configuration's own
// latency curve: from near zero-load to just under the predicted knee.
var corrFractions = []float64{0.25, 0.5, 0.75, 0.9}

// modelPoint pairs an analytic prediction with the simulated measurement
// at one offered load of one series: a configuration, or one QoS class of
// a configuration.
type modelPoint struct {
	series    string
	rate      float64
	predicted float64
	simulated float64
}

// relErr is the point's relative error against the simulation.
func (p modelPoint) relErr() float64 {
	return math.Abs(p.predicted-p.simulated) / p.simulated
}

// kneeSweep is the sweep spec of p at the given fractions of a predicted
// saturation knee — the one way the model-vs-simulation figures and their
// gates place their loads, so each sweep covers its configuration's own
// latency curve.
func kneeSweep(p core.NetworkParams, knee float64, fractions []float64, ph core.OpenLoopOpts) (core.ExperimentSpec, error) {
	if knee <= 0 || math.IsInf(knee, 1) {
		return core.ExperimentSpec{}, fmt.Errorf("estimator found no saturation knee")
	}
	s := openLoopSpec(p, 0, ph)
	s.Kind = "sweep"
	for _, f := range fractions {
		s.Rates = append(s.Rates, f*knee)
	}
	return s, nil
}

// modelPoints pairs every stable point of a sweep with the model: one
// point per QoS class (named after the class, predicted by
// predict(class, rate)) or, for a class-free network, one named series
// predicted by predict(0, rate). Unstable points (the prediction
// overshot the real saturation) are dropped: the comparison is defined
// pre-saturation only.
func modelPoints(series string, sweep []*openloop.Result, predict func(class int, rate float64) float64) []modelPoint {
	var out []modelPoint
	for _, r := range sweep {
		if !r.Stable {
			break
		}
		if len(r.PerClass) == 0 {
			out = append(out, modelPoint{series, r.Rate, predict(0, r.Rate), r.AvgLatency})
		}
		for c, cr := range r.PerClass {
			out = append(out, modelPoint{cr.Name, r.Rate, predict(c, r.Rate), cr.AvgLatency})
		}
	}
	return out
}

// corrPoints sweeps every configuration at the fractions of its own
// single-class estimator's knee, all in one RunAll, and gathers the
// modelPoints of each against that estimator.
func (c *ctx) corrPoints(configs []corrConfig, fractions []float64, ph core.OpenLoopOpts) ([]modelPoint, error) {
	ests := make([]*analytic.Estimator, len(configs))
	specs := make([]core.ExperimentSpec, len(configs))
	for i, cfg := range configs {
		est, err := core.AnalyticEstimator(cfg.p)
		if err == nil {
			specs[i], err = kneeSweep(cfg.p, est.Knee(3), fractions, ph)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		ests[i] = est
	}
	res, err := c.runs.RunAll(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	var out []modelPoint
	for i, cfg := range configs {
		out = append(out, modelPoints(cfg.name, res[i].Sweep,
			func(_ int, rate float64) float64 { return ests[i].Latency(rate) })...)
	}
	return out, nil
}

// meanRelErr is the mean relative error of the point set.
func meanRelErr(pts []modelPoint) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, p := range pts {
		sum += p.relErr()
	}
	return sum / float64(len(pts))
}

// analyticCorr renders the correlation scatter and the per-configuration
// accuracy notes.
func analyticCorr(c *ctx) error {
	configs := corrConfigs()
	pts, err := c.corrPoints(configs, corrFractions, c.phases())
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("analytic-corr: no stable pre-saturation points")
	}

	f := stats.NewFigure("Analytic queueing estimator vs simulation (pre-saturation)",
		"analytic latency (cycles)", "simulated latency (cycles)")

	lo, hi := math.Inf(1), math.Inf(-1)
	byConfig := map[string][]modelPoint{}
	for _, p := range pts {
		byConfig[p.series] = append(byConfig[p.series], p)
		lo = min(lo, min(p.predicted, p.simulated))
		hi = max(hi, max(p.predicted, p.simulated))
	}
	ident := f.AddSeries("y = x")
	ident.Add(lo, lo)
	ident.Add(hi, hi)
	for _, cfg := range configs {
		group := byConfig[cfg.name]
		if len(group) == 0 {
			continue
		}
		s := f.AddSeries(cfg.name)
		for _, p := range group {
			s.Add(p.predicted, p.simulated)
		}
		f.Note("%s: %d points, mean relative error %.1f%%", cfg.name, len(group), 100*meanRelErr(group))
	}
	f.Note("overall: %d points, mean relative error %.1f%%", len(pts), 100*meanRelErr(pts))
	f.Note("loads are {%.2g..%.2g} x each config's predicted knee; unstable points dropped", corrFractions[0], corrFractions[len(corrFractions)-1])
	return c.writeFigure("analytic_corr", f)
}
