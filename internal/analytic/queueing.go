package analytic

// Contention-aware latency estimation: per-channel M/G/1 waiting times
// composed along the routes of the channel-load analysis. The estimator
// predicts the whole latency–load curve in microseconds, which is what the
// sweep screening in internal/core uses to decide which offered loads are
// worth simulating at all (see DESIGN.md §13).
//
// The model: a channel of load gamma (expected crossings per injected
// packet, from routeAnalysis) carries lambda = gamma*N*theta/E[L] packets
// per cycle when every one of the N nodes offers theta flits/cycle. Each
// crossing occupies the channel for S = tr + L cycles (router pipeline
// plus serialization of the L-flit body), so the utilization is
// rho = lambda*E[S] and the Pollaczek–Khinchine waiting time is
//
//	W = lambda * E[S^2] / (2 * (1 - rho)).
//
// A packet's expected queueing delay is the sum of W over the channels it
// crosses — in expectation, sum_c gamma_c * W_c — plus the same M/G/1 term
// for its source injection queue. Added to the zero-load latency T0 this
// gives the predicted average latency T(theta), diverging as the busiest
// channel's utilization approaches 1.

import (
	"math"
	"sort"

	"noceval/internal/traffic"
)

// meanSquarer is the optional second-moment hook on a packet-size
// distribution; without it the estimator assumes a deterministic length
// (E[L^2] = E[L]^2), which is exact for FixedSize.
type meanSquarer interface {
	MeanSquare() float64
}

// Estimator is a compiled latency–load model for one (topology, routing,
// pattern, size-mix) configuration. Building it costs one route analysis
// (tens of microseconds on an 8x8 mesh); evaluating Latency is a few
// hundred floating-point operations. The zero value is not usable; build
// one with Model.NewEstimator.
type Estimator struct {
	// T0 is the predicted zero-load average latency in cycles
	// (Model.ZeroLoadLatency of the same configuration).
	T0 float64
	// SatRate is the hard throughput bound in flits/cycle/node: the
	// offered load at which the busiest channel reaches unit utilization
	// (Model.ChannelBound's thetaSat). Latency returns +Inf at and above it.
	SatRate float64

	n       int       // nodes
	gamma   []float64 // per-channel expected crossings per injected packet, sorted
	meanLen float64   // E[L], flits
	sMean   float64   // E[S] = tr + E[L], cycles
	sSq     float64   // E[S^2] = tr^2 + 2 tr E[L] + E[L^2], cycles^2
}

// NewEstimator compiles the queueing model for pattern p and packet-size
// mix sizes. It fails when the pattern does not expose destination weights
// (see trafficWeights) or when the pattern generates no network traffic.
func (m Model) NewEstimator(p traffic.Pattern, sizes traffic.SizeDist) (*Estimator, error) {
	loads, avgPathCycles, err := m.routeAnalysis(p)
	if err != nil {
		return nil, err
	}
	meanLen := sizes.Mean()
	meanSq := meanLen * meanLen
	if ms, ok := sizes.(meanSquarer); ok {
		meanSq = ms.MeanSquare()
	}
	tr := float64(m.RouterDelay)
	e := &Estimator{
		T0:      avgPathCycles + tr + meanLen - 1,
		n:       m.Topo.N,
		meanLen: meanLen,
		sMean:   tr + meanLen,
		sSq:     tr*tr + 2*tr*meanLen + meanSq,
	}
	gammaMax := 0.0
	e.gamma = make([]float64, 0, len(loads))
	for _, g := range loads {
		e.gamma = append(e.gamma, g)
		if g > gammaMax {
			gammaMax = g
		}
	}
	// Map iteration order is random; the latency sum must not be. Sorting
	// makes every evaluation bit-reproducible across runs.
	sort.Float64s(e.gamma)
	if gammaMax > 0 {
		e.SatRate = 1 / (gammaMax * float64(e.n))
	}
	return e, nil
}

// wait returns the M/G/1 waiting time in cycles for a channel at
// utilization rho, or +Inf at rho >= 1.
func (e *Estimator) wait(rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	lambda := rho / e.sMean
	return lambda * e.sSq / (2 * (1 - rho))
}

// Latency returns the predicted average packet latency in cycles at
// offered load rate (flits/cycle/node), or +Inf at or beyond SatRate.
func (e *Estimator) Latency(rate float64) float64 {
	if e.SatRate <= 0 || rate >= e.SatRate {
		return math.Inf(1)
	}
	if rate <= 0 {
		return e.T0
	}
	// Source injection queue: a node offering rate flits/cycle into a
	// 1 flit/cycle injection channel.
	t := e.T0 + e.wait(rate)
	for _, g := range e.gamma {
		t += g * e.wait(g*float64(e.n)*rate)
	}
	return t
}

// MaxUtilization returns the busiest channel's predicted utilization at
// the given offered load (1.0 at SatRate).
func (e *Estimator) MaxUtilization(rate float64) float64 {
	if e.SatRate <= 0 {
		return math.Inf(1)
	}
	return rate / e.SatRate
}

// Knee returns the predicted saturation point under the empirical
// definition used by openloop.SaturationWith: the offered load at which the
// predicted latency crosses latencyCap times the zero-load latency
// (latencyCap <= 1 defaults to 3). The knee always lies below SatRate,
// where latency diverges.
func (e *Estimator) Knee(latencyCap float64) float64 {
	if latencyCap <= 1 {
		latencyCap = 3
	}
	if e.SatRate <= 0 {
		return 0
	}
	limit := latencyCap * e.T0
	lo, hi := 0.0, e.SatRate
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if e.Latency(mid) > limit {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

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
