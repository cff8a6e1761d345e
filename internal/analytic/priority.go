package analytic

// Contention-aware latency estimation: per-channel M/G/1 waiting times
// composed along the routes of the channel-load analysis. The model
// predicts whole latency–load curves in microseconds, which is what the
// sweep screening in internal/core uses to decide which offered loads are
// worth simulating at all (see DESIGN.md §13). There is one compiled model,
// PriorityEstimator; a network without QoS classes is its one-class case
// (Estimator, queueing.go).
//
// The model: a channel of load gamma (expected crossings per injected
// packet, from routeAnalysis) carries lambda = gamma*N*theta/E[L] packets
// per cycle when every one of the N nodes offers theta flits/cycle. Each
// crossing occupies the channel for S = tr + L cycles (router pipeline
// plus serialization of the L-flit body), so the utilization is
// rho = lambda*E[S]. Under the strict-priority QoS arbitration of
// internal/router each channel is an M/G/1 priority queue in which class
// c's waiting time sees only the load of classes of the same or higher
// priority (classes j <= c):
//
//	W_c = (sum_{j<=c} lambda_j E[S_j^2]) / (2 (1 - sum_{j<=c} rho_j))
//
// — the Pollaczek–Khinchine numerator and denominator both truncated at
// class c. This captures the defining property of strict priority: a
// high-priority class's latency is independent of lower-priority load, so
// its curve stays flat while low classes saturate.
//
// A packet's expected queueing delay is the sum of W over the channels it
// crosses — in expectation, sum_ch gamma_c(ch) * W_c(ch) — plus the same
// term for its source injection queue. Added to the zero-load latency T0
// this gives the predicted average latency T_c(theta), diverging as the
// busiest channel's cumulative utilization approaches 1.
//
// Per-class routes matter: each class has its own traffic pattern, so the
// per-channel crossing counts gamma are computed per class and aligned on
// a shared channel index, sorted by (router, port), before composing
// waiting times. Every sum over channels runs in that key order.

import (
	"math"
	"sort"

	"noceval/internal/traffic"
)

// PriorityEstimator is a compiled per-class latency–load model for one
// (topology, routing) configuration and QoS class mix. Build one with
// Model.NewPriorityEstimator; the zero value is not usable.
type PriorityEstimator struct {
	n       int
	classes []classModel
}

// classModel is the compiled per-class data: the class's own zero-load
// latency and service moments, plus its per-channel crossing counts
// aligned on the estimator's shared channel index.
type classModel struct {
	name    string
	share   float64
	t0      float64
	satRate float64
	sMean   float64 // E[S] = tr + E[L], cycles
	sSq     float64 // E[S^2], cycles^2
	gamma   []float64
}

// NewPriorityEstimator compiles the priority-queueing model for the given
// QoS class mix (index 0 = highest priority). Every class needs a non-nil
// Pattern and Sizes — core materializes inherited defaults before calling.
// It fails when a class's pattern does not expose destination weights or
// the mix itself is invalid.
func (m Model) NewPriorityEstimator(classes []traffic.Class) (*PriorityEstimator, error) {
	if err := traffic.ValidateClasses(classes); err != nil {
		return nil, err
	}
	n := m.Topo.N
	tr := float64(m.RouterDelay)

	// Per-class route analyses, then a shared sorted channel index so the
	// cumulative per-channel sums align across classes (and stay
	// bit-reproducible: map iteration order must not leak into results).
	loads := make([]map[[2]int]float64, len(classes))
	keySet := map[[2]int]bool{}
	e := &PriorityEstimator{n: n, classes: make([]classModel, len(classes))}
	for i, cl := range classes {
		chans, avgPathCycles, err := m.routeAnalysis(cl.Pattern)
		if err != nil {
			return nil, err
		}
		loads[i] = chans
		for k := range chans {
			keySet[k] = true
		}
		meanLen := cl.Sizes.Mean()
		meanSq := meanLen * meanLen
		if ms, ok := cl.Sizes.(meanSquarer); ok {
			meanSq = ms.MeanSquare()
		}
		e.classes[i] = classModel{
			name:  cl.Name,
			share: cl.Share,
			t0:    avgPathCycles + tr + meanLen - 1,
			sMean: tr + meanLen,
			sSq:   tr*tr + 2*tr*meanLen + meanSq,
		}
	}
	keys := make([][2]int, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for i := range e.classes {
		g := make([]float64, len(keys))
		for k, key := range keys {
			g[k] = loads[i][key]
		}
		e.classes[i].gamma = g
	}
	// Class c saturates when the busiest channel's cumulative utilization
	// over classes <= c reaches 1: rho_cum(ch) = theta * N * sum_{j<=c}
	// gamma_j(ch) * share_j, linear in the offered load theta.
	for c := range e.classes {
		coefMax := 0.0
		for k := range keys {
			coef := 0.0
			for j := 0; j <= c; j++ {
				coef += e.classes[j].gamma[k] * e.classes[j].share
			}
			if coef > coefMax {
				coefMax = coef
			}
		}
		if coefMax > 0 {
			e.classes[c].satRate = 1 / (coefMax * float64(n))
		}
	}
	return e, nil
}

// NumClasses returns the number of QoS classes in the mix.
func (e *PriorityEstimator) NumClasses() int { return len(e.classes) }

// ClassName returns the name of class c.
func (e *PriorityEstimator) ClassName(c int) string { return e.classes[c].name }

// T0 returns class c's predicted zero-load average latency in cycles.
func (e *PriorityEstimator) T0(c int) float64 { return e.classes[c].t0 }

// SatRate returns the total offered load (flits/cycle/node, summed over
// all classes) at which class c's latency diverges: the point where the
// busiest channel's cumulative same-or-higher-priority utilization reaches
// one. Higher-priority classes have higher (or equal) SatRates — they are
// protected from lower-priority load.
func (e *PriorityEstimator) SatRate(c int) float64 { return e.classes[c].satRate }

// wait returns the truncated P-K waiting time for class c given the
// per-class utilizations rho[j] of one channel: only classes j <= c enter
// the numerator and the denominator. +Inf once the cumulative utilization
// reaches 1.
func (e *PriorityEstimator) wait(c int, rho []float64) float64 {
	num, sigma := 0.0, 0.0
	for j := 0; j <= c; j++ {
		num += rho[j] / e.classes[j].sMean * e.classes[j].sSq
		sigma += rho[j]
	}
	if sigma >= 1 {
		return math.Inf(1)
	}
	return num / (2 * (1 - sigma))
}

// Latency returns class c's predicted average packet latency in cycles
// when the network's total offered load is rate flits/cycle/node (split
// across classes by their shares), or +Inf at or beyond SatRate(c).
func (e *PriorityEstimator) Latency(c int, rate float64) float64 {
	cl := &e.classes[c]
	if cl.satRate <= 0 || rate >= cl.satRate {
		return math.Inf(1)
	}
	if rate <= 0 {
		return cl.t0
	}
	// The per-class utilizations of one channel: on the stack for any
	// realistic class count, so the 50 evaluations of a Knee bisection do
	// not allocate.
	var scratch [8]float64
	rho := scratch[:]
	if c >= len(scratch) {
		rho = make([]float64, c+1)
	}
	// Source injection queue: every class of the node shares the 1
	// flit/cycle injection channel, served in priority order.
	for j := 0; j <= c; j++ {
		rho[j] = rate * e.classes[j].share
	}
	t := cl.t0 + e.wait(c, rho)
	for k := range cl.gamma {
		if cl.gamma[k] == 0 {
			continue
		}
		for j := 0; j <= c; j++ {
			rho[j] = e.classes[j].gamma[k] * float64(e.n) * rate * e.classes[j].share
		}
		t += cl.gamma[k] * e.wait(c, rho)
	}
	return t
}

// Knee returns class c's predicted saturation point under the empirical
// definition of openloop.SaturationWith: the total offered load at
// which the class's predicted latency crosses latencyCap times its
// zero-load latency (latencyCap <= 1 defaults to 3).
func (e *PriorityEstimator) Knee(c int, latencyCap float64) float64 {
	if latencyCap <= 1 {
		latencyCap = 3
	}
	cl := &e.classes[c]
	if cl.satRate <= 0 {
		return 0
	}
	limit := latencyCap * cl.t0
	lo, hi := 0.0, cl.satRate
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if e.Latency(c, mid) > limit {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// ClassCurvePoint is one sample of a class's predicted latency–load curve.
type ClassCurvePoint struct {
	Rate    float64 // total offered load, flits/cycle/node
	Latency float64 // predicted class average latency, cycles
}

// Curve evaluates class c's predicted latency at each total offered load.
func (e *PriorityEstimator) Curve(c int, rates []float64) []ClassCurvePoint {
	out := make([]ClassCurvePoint, len(rates))
	for i, r := range rates {
		out[i] = ClassCurvePoint{Rate: r, Latency: e.Latency(c, r)}
	}
	return out
}
