// Package closedloop implements the paper's closed-loop synthetic workload
// models: the batch model with intra-node dependency (§II-B1) — every node
// completes a batch of b request/reply transactions with at most m
// outstanding (the MSHR model) — and the barrier model with inter-node
// dependency (§II-B2).
//
// It also implements the paper's extensions (§IV-C, §V): the network access
// rate (NAR) injection model, the fixed and probabilistic reply-latency
// models for the memory hierarchy, and the kernel-traffic model that adds
// runtime-independent syscall traffic statically and runtime-proportional
// timer-interrupt traffic dynamically.
package closedloop

import (
	"fmt"
	"math"

	"noceval/internal/sim"
)

// ReplyModel decides how long a destination waits before injecting the
// reply to a request, modelling L2/memory access latency (§IV-C2).
type ReplyModel interface {
	// Name returns a short identifier for reports.
	Name() string
	// Delay returns the cycles between request arrival and reply injection.
	Delay(rng *sim.RNG) int64
}

// ImmediateReply is the baseline batch model: replies are injected the
// cycle the request arrives.
type ImmediateReply struct{}

// Name implements ReplyModel.
func (ImmediateReply) Name() string { return "immediate" }

// Delay implements ReplyModel.
func (ImmediateReply) Delay(*sim.RNG) int64 { return 0 }

// FixedReply adds a constant latency to every reply, modelling a uniform
// remote L2 access (the paper's "fixed latency model", Fig 17a/b).
type FixedReply struct {
	Latency int64
}

// Name implements ReplyModel.
func (f FixedReply) Name() string { return fmt.Sprintf("fixed%d", f.Latency) }

// Delay implements ReplyModel.
func (f FixedReply) Delay(*sim.RNG) int64 { return f.Latency }

// ProbabilisticReply models a cache hierarchy: every access pays the L2
// latency, and with probability MissRate it additionally pays the memory
// latency (the paper's Fig 17c uses 20 + 0.1*300).
type ProbabilisticReply struct {
	L2Latency     int64
	MemoryLatency int64
	MissRate      float64
}

// Name implements ReplyModel.
func (p ProbabilisticReply) Name() string {
	return fmt.Sprintf("prob%d+%.2f*%d", p.L2Latency, p.MissRate, p.MemoryLatency)
}

// Delay implements ReplyModel.
func (p ProbabilisticReply) Delay(rng *sim.RNG) int64 {
	d := p.L2Latency
	if rng.Bernoulli(p.MissRate) {
		d += p.MemoryLatency
	}
	return d
}

// Mean returns the expected reply latency of the model.
func (p ProbabilisticReply) Mean() float64 {
	return float64(p.L2Latency) + p.MissRate*float64(p.MemoryLatency)
}

// defaultMaxCycles is the deadline of a closed-loop run that sets none.
const defaultMaxCycles = 50_000_000

// CheckReply rejects a reply model RunBatch cannot run: a negative latency,
// a latency beyond the run's deadline maxCycles (zero or negative takes the
// 50M default) — no such reply could be injected before the run is aborted,
// and bounding it keeps "arrival cycle + latency" from overflowing into a
// reply that is ready at once — or a miss rate that is not a probability.
// internal/core applies it to a spec before anything simulates. A nil model
// (immediate replies) and models defined outside this package pass.
func CheckReply(r ReplyModel, maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	// now < maxCycles and a probabilistic delay is at most two latencies.
	maxCycles = min(maxCycles, math.MaxInt64/4)
	latency := func(what string, l int64) error {
		if l < 0 || l > maxCycles {
			return fmt.Errorf("closedloop: reply %s %d outside [0, %d] (the run's cycle limit)", what, l, maxCycles)
		}
		return nil
	}
	switch m := r.(type) {
	case FixedReply:
		return latency("latency", m.Latency)
	case ProbabilisticReply:
		if err := latency("L2 latency", m.L2Latency); err != nil {
			return err
		}
		if err := latency("memory latency", m.MemoryLatency); err != nil {
			return err
		}
		if !(m.MissRate >= 0 && m.MissRate <= 1) {
			return fmt.Errorf("closedloop: reply miss rate %g outside [0, 1]", m.MissRate)
		}
	}
	return nil
}
