package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/engine"
	"noceval/internal/network"
	"noceval/internal/openloop"
	"noceval/internal/topology"
	"noceval/internal/workload"
)

// env is what one workload run is given.
type env struct {
	seed uint64
	// scale multiplies every workload size; 1 is the documented shape and
	// only the package's tests use less.
	scale float64
	tr    *tracer // nil on the untraced run
	// dir holds what a workload writes (experiment cache, ledger); it lies
	// inside the checkout.
	dir string
}

// cycles scales a phase length, keeping it long enough to be a run at all.
func (e *env) cycles(n int64) int64 {
	if v := int64(float64(n) * e.scale); v > 200 {
		return v
	}
	return 200
}

// count scales an item count with a floor.
func (e *env) count(n, floor int) int {
	if v := int(float64(n) * e.scale); v > floor {
		return v
	}
	return floor
}

// repOut is what one repetition (one round for service_mix) reports.
type repOut struct {
	// simCycles is the simulated clock the repetition covered, stepped plus
	// fast-forwarded.
	simCycles int64
	// flitHops is the sum of channel flit counts, 0 where no Inspect hook
	// reaches the network.
	flitHops int64
	eng      engine.Outcome
	// digest folds every simulated-time result of the repetition; two
	// repetitions of one run must agree on it.
	digest string
	// ops is how many operations the repetition attempted (1 for a
	// simulation, the job count for a service round); fails lists each
	// failed one.
	ops   int
	fails []string
	svc   *roundStats // service_mix only
}

func (r *repOut) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// repFunc runs one repetition under the given parent span. short selects
// the quarter-length warm-up variant.
type repFunc func(parent int, short bool) repOut

// workloadDef is one benchmark workload. setup generates the inputs from
// the seed, constructs what a run shares and runs the warm-up repetition;
// everything it does is set-up time.
type workloadDef struct {
	name, why string
	setup     func(e *env) (rep repFunc, cleanup func(), err error)
}

// Offered loads of the saturated workloads. The issue's probe rates (0.42
// and 0.22) sit past the knee, where the drain phase — and so the work per
// repetition — swings 12 % and 3 % from seed to seed; one step lower the
// routers are as busy (see network.active_routers_mean_sat) and the run
// length is the same for every seed to 0.1 %.
const (
	satRate8x8   = 0.40
	satRate16x16 = 0.20
	idleRate     = 0.02
)

var workloads = []workloadDef{
	{"sat_mesh8x8", "saturated 8x8 mesh, nothing skippable: router.Step and network.Step are nearly all the time; claim workload for hot-loop work",
		openLoopSetup("mesh8x8", satRate8x8, 2000, 30000)},
	{"sat_mesh16x16", "4x the routers: per-router state stops fitting in cache, so data-layout changes show here first",
		openLoopSetup("mesh16x16", satRate16x16, 1000, 5000)},
	{"idle_openloop", "same network.Step at 2 % load: the active-router bitmap and 64 Bernoulli draws per cycle dominate, routers do little",
		openLoopSetup("mesh8x8", idleRate, 2000, 600000)},
	{"idle_batch_tail", "over 90 % of cycles fast-forwarded: engine loop and batch driver do the work; bypass workload for router changes",
		batchTailSetup},
	{"exec_canneal", "execution-driven CMP run: caches, directory, cores and kernel model dominate over a lightly loaded 4x4 network",
		execSetup},
	{"sweep_knee", "the path figure regeneration spends its time in: parallel speculative waves, early stop, discarded saturated points",
		sweepSetup},
	{"service_mix", "the nocd user's path, spec POST to result bytes, cached, cold and coalesced; almost no router work",
		serviceSetup},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// digestOf is the SHA-256 of v's JSON encoding (struct fields in
// declaration order, map keys sorted: canonical for our result types).
func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// flitHops sums the flits every channel of the network has carried.
func flitHops(n *network.Network) (hops int64) {
	for _, c := range n.ChannelLoads() {
		hops += c.Flits
	}
	return hops
}

// inspector returns the Inspect hook every simulation run gets: it checks
// flit conservation on the final state and sums the channel loads.
func inspector(out *repOut) func(*network.Network) {
	return func(n *network.Network) {
		if err := n.CheckConservation(); err != nil {
			out.failf("conservation: %v", err)
		}
		out.flitHops += flitHops(n)
	}
}

// baseline returns the Table I network with the run's seed and the
// sequential stepping loop, whatever NOCEVAL_SHARDS says.
func baseline(e *env, topo string) core.NetworkParams {
	p := core.Baseline()
	p.Topology = topo
	p.Seed = e.seed
	p.Shards = 0
	return p
}

// constructOnce times the construction calls a run makes internally, so a
// change that moves work into them shows in set-up time and in the trace.
func constructOnce(e *env, parent int, p core.NetworkParams) error {
	s := e.tr.begin(parent, "topology.ByName")
	_, err := topology.ByName(p.Topology)
	e.tr.end(s)
	if err != nil {
		return err
	}
	s = e.tr.begin(parent, "core.NetworkParams.Build")
	cfg, err := p.Build()
	e.tr.end(s)
	if err != nil {
		return err
	}
	s = e.tr.begin(parent, "network.New")
	network.New(cfg).Close()
	e.tr.end(s)
	return nil
}

// finishSetup runs the warm-up repetition and fails set-up when it fails.
func finishSetup(e *env, parent int, rep repFunc) (repFunc, func(), error) {
	s := e.tr.begin(parent, "warmup")
	out := rep(s, true)
	e.tr.end(s)
	if len(out.fails) > 0 {
		return nil, nil, fmt.Errorf("warm-up repetition failed: %s", out.fails[0])
	}
	return rep, func() {}, nil
}

func openLoopSetup(topo string, rate float64, warmup, measure int64) func(*env) (repFunc, func(), error) {
	return func(e *env) (repFunc, func(), error) {
		root := e.tr.begin(0, "setup")
		defer e.tr.end(root)
		p := baseline(e, topo)
		if err := constructOnce(e, root, p); err != nil {
			return nil, nil, err
		}
		rep := func(parent int, short bool) repOut {
			out := repOut{ops: 1}
			s := e.tr.begin(parent, "core.NetworkParams.Build")
			net, err := p.Build()
			e.tr.end(s)
			if err != nil {
				out.failf("build: %v", err)
				return out
			}
			pat, _ := p.BuildPattern()
			sizes, _ := p.BuildSizes()
			m := e.cycles(measure)
			if short {
				m = e.cycles(measure / 4)
			}
			s = e.tr.begin(parent, "openloop.Run")
			res, err := openloop.Run(openloop.Config{
				Net: net, Pattern: pat, Sizes: sizes, Rate: rate,
				Warmup: e.cycles(warmup), Measure: m, DrainLimit: 20000, Seed: e.seed,
				Inspect:  inspector(&out),
				OnEngine: func(o engine.Outcome) { out.eng = o },
			})
			e.tr.end(s)
			if err != nil {
				out.failf("openloop.Run: %v", err)
				return out
			}
			if !res.Stable {
				out.failf("openloop.Run at rate %.2f: not stable", rate)
			}
			out.simCycles = res.EndCycle
			if out.digest, err = digestOf(res); err != nil {
				out.failf("digest: %v", err)
			}
			return out
		}
		return finishSetup(e, root, rep)
	}
}

// batchTailSetup: B transactions per node, one outstanding, and a reply
// latency three orders of magnitude above the network's: the clock is
// almost entirely fast-forwarded.
func batchTailSetup(e *env) (repFunc, func(), error) {
	const replyLatency = 20000
	root := e.tr.begin(0, "setup")
	defer e.tr.end(root)
	p := baseline(e, "mesh8x8")
	if err := constructOnce(e, root, p); err != nil {
		return nil, nil, err
	}
	rep := func(parent int, short bool) repOut {
		out := repOut{ops: 1}
		s := e.tr.begin(parent, "core.NetworkParams.Build")
		net, err := p.Build()
		e.tr.end(s)
		if err != nil {
			out.failf("build: %v", err)
			return out
		}
		pat, _ := p.BuildPattern()
		b := e.count(2000, 8)
		if short {
			b = e.count(500, 4)
		}
		s = e.tr.begin(parent, "closedloop.RunBatch")
		res, err := closedloop.RunBatch(closedloop.BatchConfig{
			Net: net, Pattern: pat, B: b, M: 1, Seed: e.seed,
			Reply:     closedloop.FixedReply{Latency: replyLatency},
			MaxCycles: int64(b) * 2 * replyLatency,
			Inspect:   inspector(&out),
			OnEngine:  func(o engine.Outcome) { out.eng = o },
		})
		e.tr.end(s)
		if err != nil {
			out.failf("closedloop.RunBatch: %v", err)
			return out
		}
		if !res.Completed {
			out.failf("closedloop.RunBatch: not completed")
		}
		out.simCycles = res.Runtime
		if out.digest, err = digestOf(res); err != nil {
			out.failf("digest: %v", err)
		}
		return out
	}
	return finishSetup(e, root, rep)
}

// execSetup: the paper's third methodology on the Table II interconnect,
// at two program seeds per repetition.
func execSetup(e *env) (repFunc, func(), error) {
	root := e.tr.begin(0, "setup")
	defer e.tr.end(root)
	p := core.Table2Network(2)
	p.Seed = e.seed
	p.Shards = 0
	if err := constructOnce(e, root, p); err != nil {
		return nil, nil, err
	}
	// The CMP run has no length knob; tests shrink it by picking the
	// benchmark with the shortest run.
	bench := "canneal"
	if e.scale < 1 {
		bench = "blackscholes"
	}
	rep := func(parent int, short bool) repOut {
		out := repOut{ops: 1}
		seeds := []uint64{e.seed, e.seed + 1}
		if short {
			seeds = seeds[:1]
		}
		var results []any
		for _, seed := range seeds {
			s := e.tr.begin(parent, "core.Exec")
			res, err := core.Exec(p, core.ExecParams{Benchmark: bench, Clock: workload.Clock75MHz, Timer: true, Seed: seed})
			e.tr.end(s)
			if err != nil {
				out.failf("core.Exec seed %d: %v", seed, err)
				return out
			}
			if !res.Completed {
				out.failf("core.Exec seed %d: not completed", seed)
			}
			out.simCycles += res.Cycles
			results = append(results, res)
		}
		var err error
		if out.digest, err = digestOf(results); err != nil {
			out.failf("digest: %v", err)
		}
		return out
	}
	return finishSetup(e, root, rep)
}

// sweepRates returns ten offered loads, step to 10*step.
func sweepRates(step float64) []float64 {
	rates := make([]float64, 10)
	for i := range rates {
		rates[i] = step * float64(i+1)
	}
	return rates
}

// The two sweeps of sweep_knee. Uniform traffic turns unstable sharply
// between 0.46 and 0.475, so the 0.05 grid is safe. Transpose under DOR
// drifts into saturation between 0.17 and 0.21, where stability — and with
// it the number of points simulated — depends on the seed; its grid steps
// by 0.07 so that 0.14 (always stable) and 0.21 (never) bracket that band.
var sweeps = []struct {
	pattern string
	step    float64
}{{"uniform", 0.05}, {"transpose", 0.07}}

// sweepSetup: two latency-load sweeps through the framework entry point,
// with the experiment cache and analytic screening off so every point is
// simulated.
func sweepSetup(e *env) (repFunc, func(), error) {
	root := e.tr.begin(0, "setup")
	defer e.tr.end(root)
	core.DisableCache()
	core.DisableScreening()
	p := baseline(e, "mesh8x8")
	if err := constructOnce(e, root, p); err != nil {
		return nil, nil, err
	}
	rep := func(parent int, short bool) repOut {
		out := repOut{ops: 1}
		todo := sweeps
		if short {
			todo = todo[:1]
		}
		opts := core.OpenLoopOpts{Warmup: e.cycles(1000), Measure: e.cycles(3000), DrainLimit: e.cycles(10000)}
		var curves [][]*openloop.Result
		for _, sw := range todo {
			q := p
			q.Pattern = sw.pattern
			s := e.tr.begin(parent, "core.OpenLoopSweepWith")
			res, err := core.OpenLoopSweepWith(q, sweepRates(sw.step), opts)
			e.tr.end(s)
			if err != nil {
				out.failf("sweep %s: %v", sw.pattern, err)
				return out
			}
			if len(res) == 0 {
				out.failf("sweep %s: no points", sw.pattern)
			}
			for _, r := range res {
				out.simCycles += r.EndCycle
			}
			curves = append(curves, res)
		}
		var err error
		if out.digest, err = digestOf(curves); err != nil {
			out.failf("digest: %v", err)
		}
		return out
	}
	return finishSetup(e, root, rep)
}
