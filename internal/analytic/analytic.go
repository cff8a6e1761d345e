// Package analytic provides first-order analytical models of network
// performance in the style of Dally & Towles: zero-load latency from hop
// counts and pipeline delays, and throughput bounds from worst-case channel
// load under a routing algorithm and traffic pattern. The evaluation
// framework uses them as sanity rails around the cycle-accurate simulator —
// the simulated zero-load latency must approach the analytical bound from
// above, and the simulated saturation throughput must stay below the
// channel-load bound.
//
// On the same channel loads sits one contention-aware queueing model
// (PriorityEstimator, priority.go): per-channel M/G/1 priority queues
// composed along routes, predicting each traffic class's whole
// latency–load curve and saturation knee. Estimator is its one-class case
// for networks without QoS classes; sweep screening in internal/core reads
// that.
package analytic

import (
	"fmt"

	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

// Model bundles the network parameters the analytical formulas need.
type Model struct {
	Topo        *topology.Topology
	Routing     routing.Algorithm
	RouterDelay int64
	// Samples controls how many routes are sampled per source/destination
	// pair for randomized algorithms (default 16; deterministic algorithms
	// always use 1).
	Samples int
	Seed    uint64
}

// trafficWeights returns W[s][d]: the probability a packet from s targets
// d. The distribution is obtained structurally from the pattern's
// traffic.Weighted implementation; a pattern that does not implement it
// (e.g. an out-of-tree stochastic pattern) is an error — sampling Dest once
// and treating the result as a permutation would silently mis-model it.
func trafficWeights(p traffic.Pattern, n int) ([][]float64, error) {
	wp, ok := p.(traffic.Weighted)
	if !ok {
		return nil, fmt.Errorf("analytic: pattern %q does not expose destination weights (implement traffic.Weighted)", p.Name())
	}
	w := make([][]float64, n)
	for s := range w {
		row := wp.DestWeights(s, n)
		if len(row) != n {
			return nil, fmt.Errorf("analytic: pattern %q returned %d weights for %d nodes", p.Name(), len(row), n)
		}
		w[s] = row
	}
	return w, nil
}

// ZeroLoadLatency estimates the average packet latency at vanishing load:
// per-hop cost (tr + channel delay) times the average route length, plus
// the final ejection pipeline (tr) and the serialization latency of the
// packet body. Randomized algorithms average over sampled routes.
func (m Model) ZeroLoadLatency(p traffic.Pattern, packetFlits int) (float64, error) {
	_, avgWeighted, err := m.routeAnalysis(p)
	if err != nil {
		return 0, err
	}
	return avgWeighted + float64(m.RouterDelay) + float64(packetFlits-1), nil
}

// ChannelBound estimates the saturation throughput in flits/cycle/node:
// the offered load at which the most-loaded channel reaches unit
// utilization. gammaMax is the expected flits crossing the busiest channel
// per injected flit per node.
func (m Model) ChannelBound(p traffic.Pattern) (thetaSat, gammaMax float64, err error) {
	loads, _, err := m.routeAnalysis(p)
	if err != nil {
		return 0, 0, err
	}
	for _, l := range loads {
		if l > gammaMax {
			gammaMax = l
		}
	}
	if gammaMax == 0 {
		return 0, 0, nil
	}
	// Channel bandwidth is 1 flit/cycle; N nodes inject theta each, and a
	// channel carrying gammaMax*N*theta flits/cycle saturates at 1.
	return 1 / (gammaMax * float64(m.Topo.N)), gammaMax, nil
}

// routeAnalysis walks every weighted source/destination pair under the
// routing algorithm, accumulating per-channel load (expected flits per
// injected flit per node, normalized so a node injecting theta flits/cycle
// puts gamma*N*theta flits/cycle on a channel of load gamma) and the
// weighted average path cost in cycles (hops * (tr + channel delay)).
func (m Model) routeAnalysis(p traffic.Pattern) (channelLoads map[[2]int]float64, avgPathCycles float64, err error) {
	t := m.Topo
	n := t.N
	w, err := trafficWeights(p, n)
	if err != nil {
		return nil, 0, err
	}
	samples := m.Samples
	if samples < 1 {
		samples = 16
	}
	if isDeterministic(m.Routing) {
		samples = 1
	}
	rng := sim.NewRNG(m.Seed ^ 0xfeedfacecafebeef)
	channelLoads = map[[2]int]float64{}
	totalW := 0.0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if w[s][d] == 0 {
				continue
			}
			weight := w[s][d] / float64(samples)
			for k := 0; k < samples; k++ {
				cycles := m.walk(rng, s, d, weight, channelLoads)
				avgPathCycles += weight * cycles
			}
			totalW += w[s][d]
		}
	}
	// Per-node normalization: weights summed over all sources equal N.
	for k := range channelLoads {
		channelLoads[k] /= float64(n)
	}
	avgPathCycles /= totalW
	return channelLoads, avgPathCycles, nil
}

// walk routes one packet, adding weight to every channel crossed, and
// returns the path cost in cycles.
func (m Model) walk(rng *sim.RNG, src, dst int, weight float64, loads map[[2]int]float64) float64 {
	t := m.Topo
	st := routing.NewState(m.Routing.PickIntermediate(t, rng, src, dst))
	st.ArriveAt(src)
	cur := src
	cost := 0.0
	var buf []routing.Candidate
	for hops := 0; ; hops++ {
		if hops > 4*t.N {
			panic(fmt.Sprintf("analytic: runaway route %d->%d with %s", src, dst, m.Routing.Name()))
		}
		buf = m.Routing.Candidates(t, cur, dst, &st, buf[:0])
		c := buf[0]
		if len(buf) > 1 {
			// Adaptive algorithms at zero load: any productive candidate
			// is equally likely; sample uniformly.
			c = buf[rng.Intn(len(buf))]
		}
		if c.Port == t.LocalPort() {
			return cost
		}
		m.Routing.Committed(t, &st, c.Class)
		link := t.LinkAt(cur, c.Port)
		loads[[2]int{cur, c.Port}] += weight
		cost += float64(m.RouterDelay) + float64(link.Delay)
		st.Traverse(link)
		cur = link.To
		st.ArriveAt(cur)
	}
}

// isDeterministic reports whether an algorithm routes every packet
// identically (no randomness in intermediate choice or candidate set).
func isDeterministic(a routing.Algorithm) bool {
	switch a.(type) {
	case routing.DOR:
		return true
	default:
		return false
	}
}

// IdealThroughput returns the bisection bound on uniform-random throughput
// in flits/cycle/node: half the traffic crosses the bisection in each
// direction.
func IdealThroughput(t *topology.Topology) float64 {
	// Under uniform random, N/2 * theta/2 flits per cycle cross each half
	// of the bisection; BisectionChannels counts both directions.
	return float64(t.BisectionChannels()) / (float64(t.N) / 2)
}
