// Package openloop implements the classic open-loop measurement methodology
// of Dally & Towles (§II-A of the paper): traffic parameters — spatial
// distribution, temporal process, packet sizes — are independent of network
// state thanks to infinite source queues, and network performance is
// characterized by the average packet latency at a swept offered load.
//
// The harness uses the standard three-phase procedure: a warmup phase to
// reach steady state, a measurement phase whose packets are tagged, and a
// drain phase (with traffic still offered, to hold the network in steady
// state) that runs until every tagged packet has arrived. An offered load
// beyond saturation is detected by the drain failing to complete or by the
// source queues growing without bound.
package openloop

import (
	"context"
	"fmt"
	"math"

	"noceval/internal/engine"
	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/router"
	"noceval/internal/sim"
	"noceval/internal/stats"
	"noceval/internal/traffic"
)

// Config describes one open-loop run.
type Config struct {
	Net     network.Config
	Pattern traffic.Pattern
	Sizes   traffic.SizeDist
	// Ctx, when non-nil, makes the run cancellable: the engine polls it at
	// fast-forward boundaries and every ~1k stepped cycles, and a
	// cancelled run returns a nil result with an error wrapping the
	// context's cause. Never part of the experiment-cache key.
	Ctx context.Context
	// Rate is the offered load in flits/cycle/node.
	Rate float64
	// Classes, when non-empty, splits the offered load into QoS traffic
	// classes: each class injects Bernoulli traffic at Rate*Share with its
	// own pattern and size distribution (nil fields inherit the top-level
	// Pattern/Sizes), and its packets carry the class index so the router
	// maps them onto the class's VC partition. Net.Router.Classes should
	// match len(Classes) for the VC partition to take effect.
	Classes []traffic.Class
	// Warmup and Measure are the phase lengths in cycles; DrainLimit bounds
	// the drain phase. Zero values select defaults (10k/10k/100k).
	Warmup     int64
	Measure    int64
	DrainLimit int64
	Seed       uint64

	// Obs, when non-nil, attaches the observability layer to the run's
	// network: metrics, per-router telemetry and flit tracing.
	Obs *obs.Observer
	// Progress, when non-nil, prints run heartbeats.
	Progress *obs.Progress

	// Inspect, when non-nil, receives the run's network after the engine
	// finishes and before Run returns — the invariant harness hooks here to
	// check conservation on the final state.
	Inspect func(*network.Network)

	// OnEngine, when non-nil, receives the engine outcome (stepped vs
	// fast-forwarded cycle split) after the run finishes. The run ledger
	// hooks here; the outcome never feeds back into results.
	OnEngine func(engine.Outcome)

	// unstable, when non-nil, is called once the run knows its result is
	// unstable: at the end of the measurement phase, when the flits the
	// window accepted already fall short of 90 % of the offered load. The
	// sweep loop sets it (screen.go); a struct copy carries it through
	// runners that wrap Run.
	unstable func()
}

// Default phase lengths applied when the corresponding Config fields are
// zero. Exported so callers that key results by their effective
// configuration (internal/core's experiment cache) can normalize.
const (
	DefaultWarmup     = 10000
	DefaultMeasure    = 10000
	DefaultDrainLimit = 100000
)

func (c *Config) fillPhaseDefaults() {
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Measure == 0 {
		c.Measure = DefaultMeasure
	}
	if c.DrainLimit == 0 {
		c.DrainLimit = DefaultDrainLimit
	}
}

func (c *Config) fillDefaults() {
	c.fillPhaseDefaults()
	if c.Sizes == nil {
		c.Sizes = traffic.FixedSize(1)
	}
	if c.Pattern == nil {
		c.Pattern = traffic.Uniform{}
	}
}

// Result summarizes one open-loop run.
type Result struct {
	Rate float64 // offered load, flits/cycle/node
	// Stable is false when the drain phase did not complete: the offered
	// load is beyond saturation and latencies diverge.
	Stable bool

	AvgLatency    float64 // mean packet latency (cycles), incl. source queueing
	LatencyCI95   float64 // 95% confidence half-width of AvgLatency (batch means)
	WorstLatency  float64 // max over nodes of the per-source average latency
	AvgNetLatency float64 // mean latency excluding source queueing
	AvgHops       float64
	P95, P99      float64

	// PerNodeAvg is the average latency of measured packets by source node
	// (the distribution plotted in Fig 11a/b).
	PerNodeAvg []float64

	// Accepted is the measured throughput in flits/cycle/node during the
	// measurement phase.
	Accepted float64

	MeasuredPackets int
	// PerClass carries per-traffic-class results when the run was driven
	// by Config.Classes, in class order (index 0 = highest priority); nil
	// for classic single-class runs so their JSON stays byte-identical.
	PerClass []ClassResult `json:",omitempty"`
	// EndCycle is the simulated cycle at which the run finished (warmup +
	// measurement + drain). It is identical across engine paths — the
	// fast-forward is exact — and gives the run ledger its cycle count.
	EndCycle int64 `json:",omitempty"`
	// LostPackets counts measured packets abandoned by the recovery NIC
	// after exhausting retries (always 0 without fault injection).
	LostPackets int `json:",omitempty"`
	// Faults carries the fault/recovery counters of a faulted run, nil
	// otherwise. DeliveredFraction is the measured-packet delivery rate.
	Faults *fault.Stats `json:",omitempty"`
}

// ClassResult summarizes one traffic class of a multi-class run. All
// latency statistics cover measured packets of the class only; Accepted is
// the class's delivered throughput during the measurement phase.
type ClassResult struct {
	Name  string
	Share float64
	Rate  float64 // offered load of this class, flits/cycle/node

	AvgLatency float64
	P95, P99   float64

	Accepted float64 // measured throughput, flits/cycle/node

	Injected        int64 // measured packets injected
	Delivered       int64 // packets delivered during the measurement phase
	MeasuredPackets int
}

// driver implements engine.Driver for the open-loop methodology: every
// cycle each terminal makes a Bernoulli injection draw, so the offered
// traffic is independent of network state — including during the drain
// phase, which keeps offering (unmeasured) traffic to hold the network in
// steady state. The draws are made ahead of the network by the run's
// source (source.go); the driver sends what they drew. Because sources
// inject every cycle, an open-loop run has no skippable cycles; its engine
// win is the network's activity-tracked stepping.
type driver struct {
	cfg *Config
	net *network.Network
	n   int

	measureFrom, drainFrom int64
	outstanding            *int
	ejected                *int64 // flits ejected inside the measurement window

	src   *source
	chunk *chunk // the chunk holding cycle now's injections
	pos   int    // the next of its injections to send

	// classInjected counts a class mix's measured packets per class; nil
	// for a single-class run.
	classInjected []int64
}

// Cycle implements engine.Driver: it sends the packets the source drew
// for cycle now, in draw order.
func (d *driver) Cycle(now int64) {
	if now == d.drainFrom && d.cfg.unstable != nil &&
		shortfall(accepted(*d.ejected, d.cfg.Measure, d.n), d.cfg.Rate) {
		d.cfg.unstable()
	}
	for now >= d.chunk.to {
		d.chunk, d.pos = d.src.next(d.chunk), 0
	}
	measured := now >= d.measureFrom && now < d.drainFrom
	c := d.chunk
	for ; d.pos < len(c.inj) && c.from+int64(c.inj[d.pos].at) == now; d.pos++ {
		e := &c.inj[d.pos]
		p := d.net.NewPacket(int(e.node), int(e.dst), int(e.size), router.KindData)
		p.Class = int(e.class)
		if measured {
			p.Measured = true
			*d.outstanding++
			if d.classInjected != nil {
				d.classInjected[e.class]++
			}
		}
		d.net.Send(p)
	}
}

// Done implements engine.Driver: the run ends once the measurement phase
// is over and every tagged packet has arrived.
func (d *driver) Done(now int64) bool {
	return now >= d.drainFrom && *d.outstanding == 0
}

// Idle implements engine.Driver; open-loop sources offer traffic every
// cycle, so the run never fast-forwards.
func (d *driver) Idle(int64) bool { return false }

// NextEvent implements engine.Driver.
func (d *driver) NextEvent(int64) int64 { return engine.NoEvent }

// sampleHint returns the capacity that holds the measured packets of a
// Bernoulli run without growing: the expected count of nodes*measure draws
// at probability prob, plus four standard deviations of slack (a few
// percent at any run length worth measuring; the 1-in-30000 run beyond it
// grows by append like any other).
func sampleHint(prob float64, nodes int, measure int64) int {
	mean := math.Min(prob, 1) * float64(nodes) * float64(measure)
	return int(mean + 4*math.Sqrt(mean) + 1)
}

// maxPresize caps what a run allocates for latency samples before any
// packet has arrived; a longer run grows by append, so memory follows the
// packets that really arrived, never a number in a spec.
const maxPresize = 1 << 20

// presize is sampleHint under that cap.
func presize(prob float64, nodes int, measure int64) int {
	return min(sampleHint(prob, nodes, measure), maxPresize)
}

// accepted is a run's measured throughput in flits/cycle/node: the flits
// ejected inside the measurement window over the window's length.
func accepted(ejected, measure int64, nodes int) float64 {
	return float64(ejected) / float64(measure) / float64(nodes)
}

// shortfall is the instability test on a closed measurement window. Beyond
// saturation the network cannot accept the offered load: source queues
// grow without bound even if the tagged packets eventually get through, so
// a >10% shortfall between accepted and offered throughput is instability.
// Run applies it to the result, and at the end of the window to decide
// whether to call Config.unstable, so both read the same expression.
func shortfall(accepted, rate float64) bool { return accepted < 0.9*rate }

// CheckPhases rejects phase lengths no run can use: each must be
// non-negative (0 selects the default), and the whole run — the engine's
// deadline, which bounds every packet latency — must fit the 32 bits a
// latency sample holds (stats.Latencies). internal/core applies it
// to openloop and sweep specs up front.
func CheckPhases(warmup, measure, drainLimit int64) error {
	for _, ph := range []struct {
		name   string
		cycles int64
	}{{"warmup", warmup}, {"measure", measure}, {"drain limit", drainLimit}} {
		if ph.cycles < 0 {
			return fmt.Errorf("openloop: %s must be >= 0 cycles (0 = default), got %d", ph.name, ph.cycles)
		}
	}
	c := Config{Warmup: warmup, Measure: measure, DrainLimit: drainLimit}
	c.fillPhaseDefaults()
	const limit = math.MaxUint32
	if c.Warmup > limit || c.Measure > limit-c.Warmup || c.DrainLimit > limit-c.Warmup-c.Measure {
		return fmt.Errorf("openloop: warmup %d + measure %d + drain limit %d exceeds %d cycles, the longest run whose latencies fit their 32-bit samples",
			c.Warmup, c.Measure, c.DrainLimit, int64(limit))
	}
	return nil
}

// CheckRate rejects offered loads no Bernoulli source can inject at;
// internal/core applies it to every rate of a sweep spec up front.
func CheckRate(rates ...float64) error {
	for _, rate := range rates {
		if rate <= 0 {
			return fmt.Errorf("openloop: offered load must be positive, got %g", rate)
		}
	}
	return nil
}

// Rates lists the offered loads step, 2*step, ... up to and including hi.
// Each rate derives from its index, rounded to 1e-9: accumulating step
// drifts (0.02 x 24 = 0.48000000000000015, 0.05 x 3 = 0.15000000000000002),
// which dropped the hi point itself.
func Rates(step, hi float64) []float64 {
	if step <= 0 {
		return nil
	}
	var rates []float64
	for i := 1; ; i++ {
		r := math.Round(float64(i)*step*1e9) / 1e9
		if r > hi {
			return rates
		}
		rates = append(rates, r)
	}
}

// Run executes one open-loop simulation.
func Run(cfg Config) (*Result, error) {
	if err := CheckPhases(cfg.Warmup, cfg.Measure, cfg.DrainLimit); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if err := CheckRate(cfg.Rate); err != nil {
		return nil, err
	}
	if len(cfg.Classes) > 0 {
		// Copy before filling per-class defaults so the caller's slice is
		// never mutated.
		cfg.Classes = append([]traffic.Class(nil), cfg.Classes...)
		for i := range cfg.Classes {
			if cfg.Classes[i].Pattern == nil {
				cfg.Classes[i].Pattern = cfg.Pattern
			}
			if cfg.Classes[i].Sizes == nil {
				cfg.Classes[i].Sizes = cfg.Sizes
			}
		}
		if err := traffic.ValidateClasses(cfg.Classes); err != nil {
			return nil, err
		}
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	net := network.New(cfg.Net)
	n := net.Nodes()

	net.AttachObserver(cfg.Obs)
	var latencyHist *obs.Histogram
	var measuredCtr *obs.Counter
	var classHists []*obs.Histogram
	if cfg.Obs != nil {
		latencyHist = cfg.Obs.Registry.Histogram("openloop.packet_latency_cycles", 0, 1024, 64)
		measuredCtr = cfg.Obs.Registry.Counter("openloop.measured_packets")
		if len(cfg.Classes) > 0 {
			classHists = make([]*obs.Histogram, len(cfg.Classes))
			for i, cl := range cfg.Classes {
				classHists[i] = cfg.Obs.Registry.Histogram(
					"openloop.class."+cl.Name+".latency_cycles", 0, 1024, 64)
			}
		}
	}

	var (
		// Every measured packet's latency, a byte each below 128 cycles:
		// the run's only per-packet store (a multi-class run keeps a
		// second sample per class, so two).
		latencies             stats.Latencies
		perNodeSum            = make([]float64, n)
		perNodeCnt            = make([]int, n)
		netLatencySum, hopSum float64 // over the measured packets, in arrival order
		outstanding           int
		ejectedFlits          int64
		lostPackets           int

		// Per-class accounting, allocated only for multi-class runs so the
		// classic path's receive callback stays unchanged.
		classLat   []stats.Latencies
		classEject []int64
		classDeliv []int64
	)
	if C := len(cfg.Classes); C > 0 {
		classLat = make([]stats.Latencies, C)
		classEject = make([]int64, C)
		classDeliv = make([]int64, C)
	}
	// The three-phase schedule in absolute cycles: warmup [0, measureFrom),
	// measurement [measureFrom, drainFrom), drain [drainFrom, ...). Packets
	// are tagged by injection cycle and counted by arrival cycle, exactly
	// as the phase flags of the old hand-rolled loop did.
	measureFrom := cfg.Warmup
	drainFrom := cfg.Warmup + cfg.Measure
	net.OnReceive = func(now int64, p *router.Packet) {
		inWindow := now >= measureFrom && now < drainFrom
		if inWindow {
			ejectedFlits += int64(p.Size)
		}
		if classEject != nil {
			qc := p.Class
			if qc < 0 || qc >= len(classEject) {
				qc = len(classEject) - 1
			}
			if inWindow {
				classEject[qc] += int64(p.Size)
				classDeliv[qc]++
			}
			if p.Measured {
				classLat[qc].Add(p.Latency())
				if classHists != nil {
					classHists[qc].Observe(float64(p.Latency()))
				}
			}
		}
		if !p.Measured {
			return
		}
		lat := p.Latency()
		latencies.Add(lat)
		l := float64(lat)
		latencyHist.Observe(l)
		measuredCtr.Inc()
		netLatencySum += float64(p.NetworkLatency())
		hopSum += float64(p.Hops)
		perNodeSum[p.Src] += l
		perNodeCnt[p.Src]++
		outstanding--
	}
	// A tagged packet the NIC gives up on will never arrive; account it so
	// the drain phase can still complete and the loss shows in the result.
	net.OnDeadDrop = func(now int64, p *router.Packet) {
		if p.Measured {
			outstanding--
			lostPackets++
		}
	}

	// The injection process: the driver's generator, and the per-class
	// probability rate*share/meanLen, so that the offered load in
	// flits/cycle/node equals the rate. Bernoulli sources fix the
	// measured-packet count in advance (n*Measure draws at a known
	// probability), so the samples are sized once, a byte a packet,
	// instead of growing their way up.
	dr := &draws{rng: sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15), n: n}
	d := &driver{
		cfg: &cfg, net: net, n: n,
		measureFrom: measureFrom, drainFrom: drainFrom,
		outstanding: &outstanding,
		ejected:     &ejectedFlits,
	}
	if len(cfg.Classes) > 0 {
		dr.classProb = make([]float64, len(cfg.Classes))
		total := 0.0
		for i, cl := range cfg.Classes {
			dr.classProb[i] = cfg.Rate * cl.Share / cl.Sizes.Mean()
			dr.sizes = append(dr.sizes, cl.Sizes)
			dr.patterns = append(dr.patterns, cl.Pattern)
			classLat[i].Grow(presize(dr.classProb[i], n, cfg.Measure))
			total += dr.classProb[i]
		}
		latencies.Grow(presize(total, n, cfg.Measure))
		d.classInjected = make([]int64, len(cfg.Classes))
	} else {
		dr.prob = cfg.Rate / cfg.Sizes.Mean()
		dr.sizes, dr.patterns = []traffic.SizeDist{cfg.Sizes}, []traffic.Pattern{cfg.Pattern}
		latencies.Grow(presize(dr.prob, n, cfg.Measure))
	}
	dr.room = n * len(dr.sizes)
	d.src = startSource(dr)
	defer d.src.close()
	d.chunk = d.src.next(nil)
	eo := engine.RunOutcome(engine.Config{
		Net:      net,
		Ctx:      cfg.Ctx,
		Deadline: drainFrom + cfg.DrainLimit,
		Progress: cfg.Progress,
		// During warmup and measurement the run length is known exactly;
		// in the drain phase only the abort bound is, so ETAs report the
		// worst case instead of a horizon the run has already passed.
		Horizon: func(now int64) int64 {
			if now <= drainFrom {
				return drainFrom
			}
			return drainFrom + cfg.DrainLimit
		},
	}, d)
	stable := eo.Completed
	if cfg.OnEngine != nil {
		cfg.OnEngine(eo)
	}
	if eo.Canceled {
		// The run was abandoned mid-flight: no phase completed, so there is
		// no partial result worth reporting (or caching).
		net.Close()
		return nil, fmt.Errorf("openloop: run canceled at cycle %d: %w", eo.End, context.Cause(cfg.Ctx))
	}
	if !stable {
		cfg.Progress.Note(net.Now(), "drain aborted at DrainLimit (%d cycles) with %d tagged packets outstanding",
			cfg.DrainLimit, outstanding)
	}
	measureCycles := cfg.Measure

	res := &Result{
		Rate:            cfg.Rate,
		Stable:          stable,
		MeasuredPackets: latencies.Len(),
		EndCycle:        net.Now(),
		PerNodeAvg:      make([]float64, n),
	}
	if N := latencies.Len(); N > 0 {
		res.AvgLatency = latencies.Mean()
		res.LatencyCI95 = latencies.BatchMeansCI95(10)
		q := latencies.Quantiles(0.95, 0.99)
		res.P95, res.P99 = q[0], q[1]
		res.AvgNetLatency = netLatencySum / float64(N)
		res.AvgHops = hopSum / float64(N)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		if perNodeCnt[i] > 0 {
			res.PerNodeAvg[i] = perNodeSum[i] / float64(perNodeCnt[i])
		}
		if res.PerNodeAvg[i] > worst {
			worst = res.PerNodeAvg[i]
		}
	}
	res.WorstLatency = worst
	if measureCycles > 0 {
		res.Accepted = accepted(ejectedFlits, measureCycles, n)
	}
	if C := len(cfg.Classes); C > 0 {
		res.PerClass = make([]ClassResult, C)
		for i, cl := range cfg.Classes {
			q := classLat[i].Quantiles(0.95, 0.99)
			cr := ClassResult{
				Name: cl.Name, Share: cl.Share, Rate: cfg.Rate * cl.Share,
				Injected: d.classInjected[i], Delivered: classDeliv[i],
				MeasuredPackets: classLat[i].Len(),
				AvgLatency:      classLat[i].Mean(), P95: q[0], P99: q[1],
			}
			if measureCycles > 0 {
				cr.Accepted = float64(classEject[i]) / float64(measureCycles) / float64(n)
			}
			res.PerClass[i] = cr
		}
	}
	if shortfall(res.Accepted, cfg.Rate) {
		res.Stable = false
	}
	res.LostPackets = lostPackets
	if fs := net.FaultStats(); fs != nil {
		if total := latencies.Len() + lostPackets; total > 0 {
			fs.DeliveredFraction = float64(latencies.Len()) / float64(total)
		}
		res.Faults = fs
	}
	if cfg.Inspect != nil {
		cfg.Inspect(net)
	}
	net.Close()
	cfg.Progress.Done(net.Now())
	return res, nil
}

// SweepWith runs the load sweep producing a latency-vs-offered-load curve
// (Fig 1, Fig 3, Fig 6a, Fig 9): the ordered prefix of rates up to and
// including the first unstable point, since every higher load saturates
// too. Rates are in flits/cycle/node. run simulates one rate: Run itself,
// or a wrapper layering caching or instrumentation over it (internal/core
// routes its experiment cache through here). It is the sweep loop of
// SweepScreenedWith with no cut: every rate of a wave is launched.
func SweepWith(cfg Config, rates []float64, run func(Config) (*Result, error)) ([]*Result, error) {
	return SweepScreenedWith(cfg, rates, run, nil)
}

// ZeroLoadWith measures the zero-load latency T0: the average latency at a
// vanishing offered load where queueing is negligible. run is the per-rate
// runner (see SweepWith).
func ZeroLoadWith(cfg Config, run func(Config) (*Result, error)) (float64, error) {
	c := cfg
	c.Rate = 0.005
	c.fillDefaults()
	c.Warmup = 2000
	c.Measure = 20000
	res, err := run(c)
	if err != nil {
		return 0, err
	}
	return res.AvgLatency, nil
}

// SaturationWith estimates the saturation throughput by bisection over the
// offered load in [lo, hi]: the largest stable load whose average latency
// stays below latencyCap times the zero-load latency (latencyCap <= 1
// defaults to 3). The paper defines saturation as the load where latency
// approaches infinity; a finite multiple (conventionally 3x) makes the
// measurement robust. run is the per-rate runner (see SweepWith).
//
// Degenerate brackets behave as the loop bound implies: lo == hi (or a
// bracket already narrower than the 0.005 resolution) probes nothing and
// returns lo; an all-stable bracket converges to hi, an all-unstable one
// stays at lo.
func SaturationWith(cfg Config, lo, hi, latencyCap float64, run func(Config) (*Result, error)) (float64, error) {
	if latencyCap <= 1 {
		latencyCap = 3
	}
	t0, err := ZeroLoadWith(cfg, run)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 12 && hi-lo > 0.005; i++ {
		mid := (lo + hi) / 2
		c := cfg
		c.Rate = mid
		res, err := run(c)
		if err != nil {
			return 0, err
		}
		if res.Stable && res.AvgLatency <= latencyCap*t0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
