package closedloop

import (
	"context"
	"fmt"

	"noceval/internal/engine"
	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/sim"
	"noceval/internal/traffic"
)

// BarrierConfig describes a closed-loop run with inter-node dependency
// (§II-B2): each node injects b packets as fast as the network accepts
// them, and a phase completes only when every injected packet has arrived —
// a global barrier. This is the barrier/burst-synchronized model of the
// prior work the paper cites, and it essentially measures network
// throughput.
type BarrierConfig struct {
	Net     network.Config
	Pattern traffic.Pattern
	Sizes   traffic.SizeDist
	// Ctx, when non-nil, makes the run cancellable (see openloop.Config.Ctx).
	Ctx context.Context

	// B is the number of packets each node sends per phase.
	B int
	// Phases is the number of barrier-separated phases (default 1).
	Phases int
	// Class stamps the QoS traffic class on every injected packet (see
	// router.Config.Classes); zero keeps the classic single-class run.
	Class int

	MaxCycles int64
	Seed      uint64

	// Inspect, when non-nil, receives the run's network after the engine
	// finishes (see BatchConfig.Inspect).
	Inspect func(*network.Network)

	// OnEngine, when non-nil, receives the engine outcome after the run
	// (see BatchConfig.OnEngine).
	OnEngine func(engine.Outcome)
}

// BarrierResult summarizes a barrier-model run.
type BarrierResult struct {
	// Runtime is the total cycles to complete all phases.
	Runtime int64
	// PhaseRuntime is the duration of each phase.
	PhaseRuntime []int64
	// Throughput is flits/cycle/node over the whole run.
	Throughput float64
	Completed  bool
	// FailedPackets counts packets the recovery NIC gave up on; each is
	// counted toward the barrier so a lossy phase can still complete.
	FailedPackets int64 `json:",omitempty"`
	// Faults carries the fault/recovery counters of a faulted run.
	Faults *fault.Stats `json:",omitempty"`
}

// CheckBarrier is CheckBatch for RunBarrier: zero phases take the default
// of one, a negative count would never equal the driver's phase counter.
func CheckBarrier(b, phases int) error {
	if b < 1 {
		return fmt.Errorf("closedloop: barrier batch size B must be >= 1, got %d", b)
	}
	if phases < 0 {
		return fmt.Errorf("closedloop: barrier phase count must be >= 0, got %d", phases)
	}
	return nil
}

// RunBarrier executes a barrier-model simulation.
func RunBarrier(cfg BarrierConfig) (*BarrierResult, error) {
	if err := CheckBarrier(cfg.B, cfg.Phases); err != nil {
		return nil, err
	}
	if cfg.Phases == 0 {
		cfg.Phases = 1
	}
	if cfg.Sizes == nil {
		cfg.Sizes = traffic.FixedSize(1)
	}
	if cfg.Pattern == nil {
		cfg.Pattern = traffic.Uniform{}
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = defaultMaxCycles
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}

	net := network.New(cfg.Net)
	n := net.Nodes()
	rng := sim.NewRNG(cfg.Seed ^ 0x1d8e4e27c47d124f)

	res := &BarrierResult{}
	d := &barrierDriver{cfg: &cfg, net: net, rng: rng, n: n, res: res, sent: make([]int, n)}
	net.OnReceive = func(now int64, p *router.Packet) { d.arrived++ }
	// An abandoned packet will never arrive: count it toward the barrier so
	// the phase completes (degraded) instead of spinning to MaxCycles.
	net.OnDeadDrop = func(now int64, p *router.Packet) {
		d.arrived++
		res.FailedPackets++
	}

	eo := engine.RunOutcome(engine.Config{
		Net:      net,
		Ctx:      cfg.Ctx,
		Deadline: cfg.MaxCycles,
	}, d)
	completed := eo.Completed
	if cfg.OnEngine != nil {
		cfg.OnEngine(eo)
	}
	if eo.Canceled {
		net.Close()
		return nil, fmt.Errorf("closedloop: barrier run canceled at cycle %d: %w", eo.End, context.Cause(cfg.Ctx))
	}
	res.Runtime = net.Now()
	if fs := net.FaultStats(); fs != nil {
		if d.injectedTotal > 0 {
			fs.DeliveredFraction = float64(d.injectedTotal-res.FailedPackets) / float64(d.injectedTotal)
		}
		res.Faults = fs
	}
	if cfg.Inspect != nil {
		cfg.Inspect(net)
	}
	net.Close()
	if !completed {
		return res, nil // Completed stays false
	}
	res.Completed = true
	if res.Runtime > 0 {
		res.Throughput = float64(d.totalFlits) / float64(res.Runtime) / float64(n)
	}
	return res, nil
}

// barrierDriver implements engine.Driver for the barrier model. Done doubles
// as the phase state machine: a phase is complete when every injected packet
// has arrived and the network has drained, at which point the driver records
// the phase runtime and resets for the next one.
type barrierDriver struct {
	cfg *BarrierConfig
	net *network.Network
	rng *sim.RNG
	n   int
	res *BarrierResult

	phase         int
	phaseStart    int64
	sent          []int
	arrived       int
	injected      int
	injectedTotal int64
	totalFlits    int64
}

// Cycle implements engine.Driver: each node offers one packet per cycle
// until its quota is met; the source queue and network backpressure pace
// actual injection, so the phase time measures sustainable throughput.
func (d *barrierDriver) Cycle(now int64) {
	cfg := d.cfg
	for node := 0; node < d.n; node++ {
		if d.sent[node] < cfg.B && d.net.SourceQueueLen(node) < 2*cfg.Sizes.Sample(d.rng) {
			size := cfg.Sizes.Sample(d.rng)
			dst := cfg.Pattern.Dest(d.rng, node, d.n)
			p := d.net.NewPacket(node, dst, size, router.KindData)
			p.Class = cfg.Class
			d.net.Send(p)
			d.totalFlits += int64(size)
			d.sent[node]++
			d.injected++
			d.injectedTotal++
		}
	}
}

// Done implements engine.Driver and advances the phase state machine.
func (d *barrierDriver) Done(now int64) bool {
	if d.injected == d.n*d.cfg.B && d.arrived == d.injected && d.net.Quiescent() {
		d.res.PhaseRuntime = append(d.res.PhaseRuntime, now-d.phaseStart)
		d.phase++
		d.phaseStart = now
		for i := range d.sent {
			d.sent[i] = 0
		}
		d.arrived, d.injected = 0, 0
		if d.phase == d.cfg.Phases {
			return true
		}
	}
	return false
}

// Idle implements engine.Driver. Barrier phases are never idle: injection
// is backpressure-paced, and the moment the last flit drains the phase is
// done, so there is no empty stretch to fast-forward over.
func (d *barrierDriver) Idle(int64) bool { return false }

// NextEvent implements engine.Driver.
func (d *barrierDriver) NextEvent(int64) int64 { return engine.NoEvent }
