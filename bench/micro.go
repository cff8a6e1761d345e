package main

// The micro-drivers: every layer of the program measured from outside, by
// timing calls into its exported functions. They run only on the traced
// pass and produce the per-layer metrics; each reports the fastest of its
// timing blocks, the same rule the end-to-end metrics follow.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"time"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/engine"
	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/openloop"
	"noceval/internal/par"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/stats"
	"noceval/internal/topology"
	"noceval/internal/traffic"
	"noceval/internal/workload"
)

// micro is the state the micro-drivers share.
type micro struct {
	e *env
	// unit is the time budget of one timing loop.
	unit time.Duration
	out  map[string]float64
	// parent is the span the service layer hangs its job spans under.
	parent int
	// Results one driver leaves for another.
	netNS      map[string]float64 // network-only loop, ns per cycle by rate name
	idleSimLat float64            // simulated average latency at idleRate
	shortSatS  float64            // wall seconds of the plain short saturated run
	// notes are printed with the metrics: the bases of the ratios.
	notes []string
	// fail reports a layer that could not be measured: a failed check,
	// not a silent zero.
	fail func(format string, args ...any)
}

func (m *micro) set(name string, v float64) { m.out[name] = v }

// sink keeps measured calls from being optimised away.
var sink int

// runMicro runs every micro-driver, each layer under a span of its name,
// and returns the measured values and the notes.
func runMicro(e *env, parent int, unit time.Duration, fail func(string, ...any)) (map[string]float64, []string) {
	m := &micro{e: e, unit: unit, out: map[string]float64{}, netNS: map[string]float64{}, parent: parent, fail: fail}
	for _, l := range []struct {
		name string
		run  func()
	}{
		{"sim", m.simLayer}, {"topology", m.topologyLayer}, {"routing_traffic", m.routingTraffic},
		{"router", m.routerLayer}, {"network", m.networkLayer}, {"engine", m.engineLayer},
		{"openloop", m.openloopLayer}, {"closedloop", m.closedloopLayer}, {"cmp", m.cmpLayer},
		{"analytic", m.analyticLayer}, {"expcache_core", m.cacheAndCore}, {"par", m.parLayer},
		{"service", m.serviceLayer}, {"obs", m.obsLayer}, {"guards", m.guardLayer},
	} {
		s := e.tr.begin(parent, "micro."+l.name)
		l.run()
		e.tr.end(s)
	}
	return m.out, m.notes
}

func (m *micro) simLayer() {
	rng := sim.NewRNG(m.e.seed)
	var acc uint64
	m.set("sim.rng_ns_per_draw", timeOp(m.unit, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			acc ^= rng.Uint64()
		}
	}))
	sink += int(acc & 1)
	// One op is a push plus the pop of the entry that became ready.
	dl := sim.NewDelayLine[int](2)
	var now int64
	m.set("sim.delayline_ns_per_op", timeOp(m.unit, 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			dl.Push(now, i)
			now++
			if v, ok := dl.PopReady(now); ok {
				sink += v & 1
			}
		}
	}))
}

func (m *micro) topologyLayer() {
	m.set("topology.byname_us_mesh16x16", timeOp(m.unit, 1, func(int) {
		t, err := topology.ByName("mesh16x16")
		if err != nil {
			m.fail("topology.ByName: %v", err)
			return
		}
		sink += t.N
	})/1e3)
	t, err := topology.ByName("mesh16x16")
	if err != nil {
		return
	}
	m.set("topology.partition_us", timeOp(m.unit, 16, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(t.Partition(2))
		}
	})/1e3)
}

func (m *micro) routingTraffic() {
	alg, err := routing.ByName("dor")
	if err != nil {
		m.fail("routing.ByName: %v", err)
		return
	}
	t := topology.NewMesh(8, 8)
	rng := sim.NewRNG(m.e.seed)
	type pair struct{ cur, dst int }
	pairs := make([]pair, 1024)
	for i := range pairs {
		pairs[i] = pair{rng.Intn(t.N), rng.Intn(t.N)}
	}
	buf := make([]routing.Candidate, 0, 8)
	st := routing.NewState(-1)
	m.set("routing.route_ns", timeOp(m.unit, len(pairs), func(n int) {
		for i := 0; i < n; i++ {
			buf = alg.Candidates(t, pairs[i].cur, pairs[i].dst, &st, buf[:0])
			sink += len(buf)
		}
	}))
	pat := traffic.Uniform{}
	m.set("traffic.dest_ns", timeOp(m.unit, 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			sink += pat.Dest(rng, i&63, 64)
		}
	}))
}

// routerLayer steps one router of the baseline microarchitecture (the
// centre of a 4x4 mesh, five ports) held at a fixed occupancy: the
// harness plays the four neighbours and the terminal, popping deliveries,
// bouncing credits and topping the input buffers up before every Step.
func (m *micro) routerLayer() {
	const id, block = 5, 1024
	topo := topology.NewMesh(4, 4)
	cfg := router.Config{VCs: 2, BufDepth: 16, Delay: 1}
	rng := sim.NewRNG(m.e.seed)
	pool := make([]router.Packet, 8192)
	next := 0
	flit := func() router.Flit {
		p := &pool[next%len(pool)]
		next++
		*p = router.Packet{ID: uint64(next), Src: id, Dst: rng.Intn(topo.N), Size: 1, Route: routing.NewState(-1)}
		return router.Flit{P: p} // sequence 0 of a one-flit packet: head and tail
	}
	// timerCost is what one time.Now pair adds to a timed Step.
	timerCost := timeOp(m.unit/4, block, func(n int) {
		for i := 0; i < n; i++ {
			sink += int(time.Since(time.Now()))
		}
	})
	// drive holds every input VC of the first vcs VCs at depth flits and
	// returns the fastest block's ns per Step, and mallocs per Step.
	drive := func(vcs, depth int) (ns, allocs float64) {
		r := router.New(id, topo, routing.DOR{}, cfg)
		var now int64
		cycle := func(timed bool) time.Duration {
			for p := 0; p < topo.Ports(); p++ {
				if f, ok := r.PopDelivery(now, p); ok && p != topo.LocalPort() {
					r.ReturnCredit(now, p, int(f.VC))
				}
				for v := 0; v < vcs; v++ {
					for r.InBufLen(p, v) < depth {
						r.AcceptFlit(p, v, flit())
					}
				}
			}
			var d time.Duration
			if timed {
				t0 := time.Now()
				r.Step(now)
				d = time.Since(t0)
			} else {
				r.Step(now)
			}
			now++
			return d
		}
		for i := 0; i < block; i++ { // reach the steady occupancy
			cycle(false)
		}
		best := 0.0
		for start := time.Now(); best == 0 || time.Since(start) < m.unit; {
			var sum time.Duration
			for i := 0; i < block; i++ {
				sum += cycle(true)
			}
			if v := float64(sum.Nanoseconds())/block - timerCost; best == 0 || v < best {
				best = v
			}
		}
		mallocs, _ := allocDelta(func() {
			for i := 0; i < block; i++ {
				cycle(false)
			}
		})
		// The feed allocates nothing (pooled packets), so these are Step's.
		return best, float64(mallocs) / block
	}
	empty := router.New(id, topo, routing.DOR{}, cfg)
	m.set("router.step_ns_empty", timeOp(m.unit, block, func(n int) {
		for i := 0; i < n; i++ {
			empty.Step(int64(i))
		}
	}))
	ns, _ := drive(1, 1)
	m.set("router.step_ns_1flit_per_port", ns)
	ns, allocs := drive(cfg.VCs, cfg.BufDepth)
	m.set("router.step_ns_full", ns)
	m.set("router.allocs_per_step", allocs)
}

// netLoopOut is what the benchmark's own network loop measured.
type netLoopOut struct {
	nsPerCycle   float64 // fastest block
	nsPerHop     float64 // whole measured window
	activeMean   float64
	allocsPerKC  float64
	bytesPerKC   float64
	cpuPerCycleS float64
}

// netLoop is the network layer driven without any run methodology: seeded
// Bernoulli injection of single-flit uniform traffic, NewPacket + Send +
// Step, timed in blocks of 1024 cycles after a warm-up to steady state.
func (m *micro) netLoop(p core.NetworkParams, rate float64, warm, blocks int) (netLoopOut, error) {
	const block = 1024
	var out netLoopOut
	cfg, err := p.Build()
	if err != nil {
		return out, err
	}
	n := network.New(cfg)
	defer n.Close()
	rng := sim.NewRNG(m.e.seed)
	pat := traffic.Uniform{}
	nodes := n.Nodes()
	cycle := func() {
		for node := 0; node < nodes; node++ {
			if rng.Bernoulli(rate) {
				n.Send(n.NewPacket(node, pat.Dest(rng, node, nodes), 1, router.KindData))
			}
		}
		n.Step()
	}
	for i := 0; i < warm; i++ {
		cycle()
	}
	h0, cpu0, t0 := flitHops(n), cpuSeconds(), time.Now()
	var active, samples int64
	mallocs, bytes := allocDelta(func() {
		for b := 0; b < blocks; b++ {
			bt := time.Now()
			for i := 0; i < block; i++ {
				cycle()
				if i&15 == 0 {
					active += int64(n.ActiveCount())
					samples++
				}
			}
			if ns := float64(time.Since(bt).Nanoseconds()) / block; out.nsPerCycle == 0 || ns < out.nsPerCycle {
				out.nsPerCycle = ns
			}
		}
	})
	wall, cycles := time.Since(t0), float64(blocks*block)
	if err := n.CheckConservation(); err != nil {
		return out, err
	}
	if h := flitHops(n) - h0; h > 0 {
		out.nsPerHop = float64(wall.Nanoseconds()) / float64(h)
	}
	out.activeMean = float64(active) / float64(samples)
	out.allocsPerKC = float64(mallocs) / cycles * 1000
	out.bytesPerKC = float64(bytes) / cycles * 1000
	out.cpuPerCycleS = (cpuSeconds() - cpu0) / cycles
	return out, nil
}

func (m *micro) networkLayer() {
	for _, topo := range []string{"mesh8x8", "mesh16x16"} {
		cfg, err := baseline(m.e, topo).Build()
		if err != nil {
			m.fail("build %s: %v", topo, err)
			return
		}
		m.set("network.new_ms_"+topo, timeOp(m.unit, 1, func(int) { network.New(cfg).Close() })/1e6)
	}
	blocks := m.e.count(4, 1)
	p8 := baseline(m.e, "mesh8x8")
	for _, c := range []struct {
		name string
		rate float64
	}{{"idle", idleRate}, {"knee", 0.35}, {"sat", satRate8x8}} {
		o, err := m.netLoop(p8, c.rate, int(m.e.cycles(1000)), blocks)
		if err != nil {
			m.fail("network loop %s: %v", c.name, err)
			return
		}
		m.netNS[c.name] = o.nsPerCycle
		m.set("network.step_ns_"+c.name+"_mesh8x8", o.nsPerCycle)
		switch c.name {
		case "idle":
			m.set("network.active_routers_mean_idle", o.activeMean)
		case "sat":
			m.set("network.active_routers_mean_sat", o.activeMean)
			m.set("network.ns_per_flit_hop_sat_mesh8x8", o.nsPerHop)
			m.set("network.allocs_per_kcycle_sat", o.allocsPerKC)
			m.set("network.bytes_per_kcycle_sat", o.bytesPerKC)
		}
	}
	p16 := baseline(m.e, "mesh16x16")
	blocks16 := m.e.count(2, 1)
	seq, err := m.netLoop(p16, satRate16x16, int(m.e.cycles(800)), blocks16)
	if err != nil {
		m.fail("network loop 16x16: %v", err)
		return
	}
	m.set("network.step_ns_sat_mesh16x16", seq.nsPerCycle)
	m.set("network.ns_per_flit_hop_sat_mesh16x16", seq.nsPerHop)
	p16.Shards = 2
	sh, err := m.netLoop(p16, satRate16x16, int(m.e.cycles(800)), blocks16)
	if err != nil {
		m.fail("network loop 16x16 shards=2: %v", err)
		return
	}
	m.set("network.shards2_speedup_mesh16x16", seq.nsPerCycle/sh.nsPerCycle)
	m.set("network.shards2_cpu_ratio_mesh16x16", sh.cpuPerCycleS/seq.cpuPerCycleS)

	// NewPacket + Send alone: packets pile up in the source queues of a
	// network that is never stepped.
	cfg, _ := p8.Build()
	rng := sim.NewRNG(m.e.seed)
	m.set("network.send_ns_per_packet", timeOp(m.unit, 4096, func(k int) {
		n := network.New(cfg)
		for i := 0; i < k; i++ {
			n.Send(n.NewPacket(i&63, rng.Intn(64), 1, router.KindData))
		}
		n.Close()
	}))
}

// stubFabric and stubDriver isolate the engine loop: a fabric whose Step
// only advances the clock, under a driver that does nothing.
type stubFabric struct {
	now   int64
	quiet bool
}

func (f *stubFabric) Now() int64             { return f.now }
func (f *stubFabric) Step()                  { f.now++ }
func (f *stubFabric) Quiescent() bool        { return f.quiet }
func (f *stubFabric) SkipTo(c int64)         { f.now = c }
func (f *stubFabric) NextObsSampleAt() int64 { return -1 }

type stubDriver struct{ end, period int64 }

func (d *stubDriver) Cycle(int64)               {}
func (d *stubDriver) Done(now int64) bool       { return now >= d.end }
func (d *stubDriver) Idle(int64) bool           { return true }
func (d *stubDriver) NextEvent(now int64) int64 { return now + d.period }

func (m *micro) engineLayer() {
	// Never quiescent: every cycle is stepped.
	m.set("engine.loop_ns_per_cycle", timeOp(m.unit, 1<<16, func(n int) {
		o := engine.RunOutcome(engine.Config{Net: &stubFabric{}}, &stubDriver{end: int64(n), period: 1})
		sink += int(o.Stepped)
	}))
	// Always quiescent with the next event 1000 cycles away: every loop
	// iteration is one fast-forward jump.
	m.set("engine.ff_ns_per_jump", timeOp(m.unit, 1<<14, func(n int) {
		o := engine.RunOutcome(engine.Config{Net: &stubFabric{quiet: true}}, &stubDriver{end: int64(n) * 1000, period: 1000})
		sink += int(o.Skipped)
	}))
}

// shortSat is a short saturated open-loop run on the baseline mesh, the
// base the overhead ratios (context poll, observer, fault layer) divide
// by. It returns the faster of two runs' wall seconds.
func (m *micro) shortSat(mut func(*core.NetworkParams, *openloop.Config)) (float64, *openloop.Result, error) {
	best := 0.0
	var last *openloop.Result
	for i := 0; i < 2; i++ {
		p := baseline(m.e, "mesh8x8")
		var cfg openloop.Config
		if mut != nil {
			mut(&p, &cfg)
		}
		net, err := p.Build()
		if err != nil {
			return 0, nil, err
		}
		cfg.Net, cfg.Rate, cfg.Seed = net, satRate8x8, m.e.seed
		cfg.Pattern, _ = p.BuildPattern()
		cfg.Sizes, _ = p.BuildSizes()
		cfg.Warmup, cfg.Measure, cfg.DrainLimit = m.e.cycles(500), m.e.cycles(2500), 20000
		t0 := time.Now()
		res, err := openloop.Run(cfg)
		if err != nil {
			return 0, nil, err
		}
		if d := time.Since(t0).Seconds(); best == 0 || d < best {
			best = d
		}
		last = res
	}
	return best, last, nil
}

func (m *micro) openloopLayer() {
	base, res, err := m.shortSat(nil)
	if err != nil {
		m.fail("short saturated run: %v", err)
		return
	}
	m.shortSatS = base
	m.set("openloop.run_ns_per_cycle_sat", base*1e9/float64(res.EndCycle))
	m.set("openloop.driver_ns_per_cycle_sat", base*1e9/float64(res.EndCycle)-m.netNS["sat"])
	withCtx, _, err := m.shortSat(func(_ *core.NetworkParams, c *openloop.Config) { c.Ctx = context.Background() })
	if err != nil {
		m.fail("short saturated run with ctx: %v", err)
		return
	}
	m.set("engine.ctx_poll_overhead_ratio", withCtx/base)

	// The idle run: same driver, 2 % load.
	p := baseline(m.e, "mesh8x8")
	net, _ := p.Build()
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	cfg := openloop.Config{Net: net, Pattern: pat, Sizes: sizes, Rate: idleRate, Seed: m.e.seed,
		Warmup: m.e.cycles(1000), Measure: m.e.cycles(40000), DrainLimit: 20000}
	var idle *openloop.Result
	ns := timeOp(m.unit, 1, func(int) {
		if idle, err = openloop.Run(cfg); err != nil {
			m.fail("idle open-loop run: %v", err)
		}
	})
	if idle == nil {
		return
	}
	m.idleSimLat = idle.AvgLatency
	m.set("openloop.run_ns_per_cycle_idle", ns/float64(idle.EndCycle))
	m.set("openloop.driver_ns_per_cycle_idle", ns/float64(idle.EndCycle)-m.netNS["idle"])

	// The sweep's speculation: points simulated against points reported,
	// on the pattern that saturates early (transpose under DOR).
	cfg.Rate = 0
	cfg.Pattern = traffic.Transpose{}
	cfg.Warmup, cfg.Measure, cfg.DrainLimit = m.e.cycles(500), m.e.cycles(1500), m.e.cycles(5000)
	launched := 0
	var mu sync.Mutex // the sweep calls its runner from parallel waves
	results, err := openloop.SweepWith(cfg, sweepRates(0.07), func(c openloop.Config) (*openloop.Result, error) {
		mu.Lock()
		launched++
		mu.Unlock()
		return openloop.Run(c)
	})
	if err != nil || launched == 0 {
		m.fail("openloop.SweepWith: %v (launched %d)", err, launched)
		return
	}
	m.set("openloop.sweep_points_launched", float64(launched))
	m.set("openloop.sweep_points_reported", float64(len(results)))
	m.set("openloop.sweep_useful_ratio", float64(len(results))/float64(launched))
}

func (m *micro) closedloopLayer() {
	p := baseline(m.e, "mesh8x8")
	net, err := p.Build()
	if err != nil {
		m.fail("build: %v", err)
		return
	}
	pat, _ := p.BuildPattern()
	// Loaded: four outstanding requests per node, immediate replies.
	b := m.e.count(1000, 8)
	var res *closedloop.BatchResult
	ns := timeOp(0, 1, func(int) {
		if res, err = closedloop.RunBatch(closedloop.BatchConfig{Net: net, Pattern: pat, B: b, M: 4, Seed: m.e.seed}); err != nil {
			m.fail("closedloop.RunBatch: %v", err)
		}
	})
	if res != nil && res.Completed {
		m.set("closedloop.batch_ns_per_transaction", ns/float64(b*net.Topo.N))
	}
	// The idle tail: what a stepped cycle costs when almost all are skipped.
	bt := m.e.count(200, 4)
	var eng engine.Outcome
	ns = timeOp(0, 1, func(int) {
		if _, err = closedloop.RunBatch(closedloop.BatchConfig{Net: net, Pattern: pat, B: bt, M: 1, Seed: m.e.seed,
			Reply: closedloop.FixedReply{Latency: 20000}, MaxCycles: int64(bt) * 40000,
			OnEngine: func(o engine.Outcome) { eng = o }}); err != nil {
			m.fail("closedloop.RunBatch tail: %v", err)
		}
	})
	if eng.Stepped > 0 {
		m.set("closedloop.tail_ns_per_stepped_cycle", ns/float64(eng.Stepped))
	}
	const phases = 4
	ns = timeOp(0, 1, func(int) {
		if _, err = core.Barrier(p, m.e.count(200, 4), phases); err != nil {
			m.fail("core.Barrier: %v", err)
		}
	})
	m.set("closedloop.barrier_ns_per_phase", ns/phases)
}

func (m *micro) cmpLayer() {
	p := core.Table2Network(2)
	p.Seed, p.Shards = m.e.seed, 0
	bench := "canneal"
	if m.e.scale < 1 {
		bench = "blackscholes"
	}
	ep := core.ExecParams{Benchmark: bench, Clock: workload.Clock75MHz, Timer: true, Seed: m.e.seed}
	run := func(ep core.ExecParams) (wall float64, cycles int64) {
		t0 := time.Now()
		res, err := core.Exec(p, ep)
		if err != nil {
			m.fail("core.Exec: %v", err)
			return 0, 0
		}
		return time.Since(t0).Seconds(), res.Cycles
	}
	realWall, realCycles := run(ep)
	ep.Ideal = true
	idealWall, idealCycles := run(ep)
	if realWall == 0 || idealWall == 0 {
		return
	}
	m.set("cmp.exec_cycles_per_s", float64(realCycles)/realWall)
	m.set("cmp.ideal_cycles_per_s", float64(idealCycles)/idealWall)
	m.set("cmp.network_share", 1-idealWall/realWall)
	t0 := time.Now()
	if _, err := core.Characterize(bench, workload.Clock75MHz, m.e.seed); err != nil {
		m.fail("core.Characterize: %v", err)
		return
	}
	m.set("workload.characterize_ms", float64(time.Since(t0).Nanoseconds())/1e6)
}

func (m *micro) analyticLayer() {
	p := baseline(m.e, "mesh8x8")
	est, err := core.AnalyticEstimator(p)
	if err != nil {
		m.fail("core.AnalyticEstimator: %v", err)
		return
	}
	m.set("analytic.estimator_build_ms", timeOp(m.unit, 1, func(int) {
		e, _ := core.AnalyticEstimator(p)
		sink += int(e.T0)
	})/1e6)
	rates := make([]float64, 25)
	for i := range rates {
		rates[i] = 0.02 * float64(i+1)
	}
	m.set("analytic.curve25_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(est.Curve(rates))
		}
	})/1e3)
	m.set("analytic.knee_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			sink += int(est.Knee(3) * 100)
		}
	})/1e3)
	if m.idleSimLat > 0 {
		d := est.Latency(idleRate) - m.idleSimLat
		if d < 0 {
			d = -d
		}
		m.set("analytic.latency_err_idle", d/m.idleSimLat)
	}
}

func (m *micro) parLayer() {
	m.set("par.parallel_noop_us", timeOp(m.unit, 1, func(int) {
		_ = par.Parallel(64, 2, func(int) error { return nil }) // the tasks cannot fail
	})/1e3)
	// The median hand-off: the fastest one only shows a worker that was
	// still spinning.
	pool := par.NewPool(1, 64, nil)
	var waits []time.Duration
	for i := 0; i < 200; i++ {
		done := make(chan time.Duration)
		t0 := time.Now()
		if pool.TrySubmit(func() { done <- time.Since(t0) }) {
			waits = append(waits, <-done)
		}
	}
	pool.Close()
	m.set("par.pool_submit_to_run_us", percentileMS(waits, 0.5)*1e3)
	g := par.NewGang(2)
	defer g.Close()
	m.set("par.gang_wave_ns", timeOp(m.unit, 1024, func(n int) {
		for i := 0; i < n; i++ {
			g.Run(func(int) {})
		}
	}))
	m.set("par.gang_barrier_ns", timeOp(m.unit, 4096, func(n int) {
		g.Run(func(int) {
			for i := 0; i < n; i++ {
				g.Barrier()
			}
		})
	}))
}

func (m *micro) obsLayer() {
	base := m.shortSatS
	withObs, _, err := m.shortSat(func(_ *core.NetworkParams, c *openloop.Config) {
		c.Obs = obs.NewObserver(obs.Options{Metrics: true})
	})
	if err != nil || base == 0 {
		m.fail("short saturated run with observer: %v", err)
		return
	}
	m.set("obs.observer_overhead_ratio", withObs/base)
	m.ledgerAndExport()
}

func (m *micro) guardLayer() {
	base := m.shortSatS
	faulted, _, err := m.shortSat(func(p *core.NetworkParams, _ *openloop.Config) {
		p.Fault = &fault.Params{DropRate: 1e-4, Timeout: 2000, MaxRetries: 8}
	})
	if err != nil || base == 0 {
		m.fail("short saturated run with faults: %v", err)
		return
	}
	m.set("fault.overhead_ratio", faulted/base)
	h := stats.NewHistogram(0, 1000, 64)
	m.set("stats.histogram_add_ns", timeOp(m.unit, 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			h.Add(float64(i & 1023))
		}
	}))
	p := baseline(m.e, "mesh4x4")
	m.set("trace.capture_replay_ms", timeOp(0, 1, func(int) {
		if _, err := core.CaptureAndReplay(p, p, m.e.count(200, 8), 4); err != nil {
			m.fail("core.CaptureAndReplay: %v", err)
		}
	})/1e6)
}

// scratch makes a fresh directory under the run's scratch directory.
func (m *micro) scratch(name string) (string, error) {
	if err := os.MkdirAll(m.e.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(m.e.dir, name+"-")
}

// dirEntryBytes returns the mean size of the regular files under dir.
func dirEntryBytes(dir string) float64 {
	var total, n int64
	// A file that cannot be read is left out of the mean.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
			n++
		}
		return nil
	})
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
