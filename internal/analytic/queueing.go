package analytic

// The class-free surface of the queueing model: what sweep screening in
// internal/core and anything else that asks "where does this network
// saturate" reads. It holds no formula of its own — a network without QoS
// classes is the priority model's one-class case (see priority.go), where
// the truncated sums have a single term and W is the plain
// Pollaczek–Khinchine waiting time lambda*E[S^2] / (2*(1-rho)).

import (
	"math"

	"noceval/internal/traffic"
)

// meanSquarer is the optional second-moment hook on a packet-size
// distribution; without it the estimator assumes a deterministic length
// (E[L^2] = E[L]^2), which is exact for FixedSize.
type meanSquarer interface {
	MeanSquare() float64
}

// Estimator is a compiled latency–load model for one (topology, routing,
// pattern, size-mix) configuration: the single-class view of a
// PriorityEstimator. Building it costs one route analysis (tens of
// microseconds on an 8x8 mesh); evaluating Latency is a few hundred
// floating-point operations. The zero value is not usable; build one with
// Model.NewEstimator.
type Estimator struct {
	// T0 is the predicted zero-load average latency in cycles
	// (Model.ZeroLoadLatency of the same configuration).
	T0 float64
	// SatRate is the hard throughput bound in flits/cycle/node: the
	// offered load at which the busiest channel reaches unit utilization
	// (Model.ChannelBound's thetaSat). Latency returns +Inf at and above it.
	SatRate float64

	model *PriorityEstimator // one class of share 1
}

// NewEstimator compiles the queueing model for pattern p and packet-size
// mix sizes as one class carrying the whole offered load. It fails when
// the pattern does not expose destination weights (see trafficWeights).
func (m Model) NewEstimator(p traffic.Pattern, sizes traffic.SizeDist) (*Estimator, error) {
	pe, err := m.NewPriorityEstimator([]traffic.Class{{Name: "all", Share: 1, Pattern: p, Sizes: sizes}})
	if err != nil {
		return nil, err
	}
	return &Estimator{T0: pe.T0(0), SatRate: pe.SatRate(0), model: pe}, nil
}

// Latency returns the predicted average packet latency in cycles at
// offered load rate (flits/cycle/node), or +Inf at or beyond SatRate.
func (e *Estimator) Latency(rate float64) float64 { return e.model.Latency(0, rate) }

// MaxUtilization returns the busiest channel's predicted utilization at
// the given offered load (1.0 at SatRate).
func (e *Estimator) MaxUtilization(rate float64) float64 {
	if e.SatRate <= 0 {
		return math.Inf(1)
	}
	return rate / e.SatRate
}

// Knee returns the predicted saturation point under the empirical
// definition used by openloop.SaturationWith: the offered load at
// which the predicted latency crosses latencyCap times the zero-load
// latency (latencyCap <= 1 defaults to 3). The knee always lies below
// SatRate, where latency diverges.
func (e *Estimator) Knee(latencyCap float64) float64 { return e.model.Knee(0, latencyCap) }

// CurvePoint is one sample of the predicted latency–load curve.
type CurvePoint struct {
	Rate    float64 // offered load, flits/cycle/node
	Latency float64 // predicted average latency, cycles (+Inf past SatRate)
	MaxUtil float64 // busiest channel's utilization
}

// Curve evaluates the predicted latency at each offered load.
func (e *Estimator) Curve(rates []float64) []CurvePoint {
	out := make([]CurvePoint, len(rates))
	for i, r := range rates {
		out[i] = CurvePoint{Rate: r, Latency: e.Latency(r), MaxUtil: e.MaxUtilization(r)}
	}
	return out
}
