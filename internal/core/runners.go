package core

import (
	"context"
	"fmt"
	"time"

	"noceval/internal/closedloop"
	"noceval/internal/cmp"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/openloop"
	"noceval/internal/stats"
	"noceval/internal/topology"
	"noceval/internal/workload"
)

// Hooks carries the optional observability attachments of a run. A run
// with any hook set is observed and bypasses the experiment cache: its
// value is the metric, telemetry and trace side effects a hit would skip.
type Hooks struct {
	Obs      *obs.Observer
	Progress *obs.Progress
}

// execute is the one run path every run mode goes through: it opens the
// run scope under key's content hash, runs compute — through the
// experiment cache under (kind, key) unless the run is observed — and
// writes the one ledger record. compute receives the scope to wire its
// OnEngine/Inspect hooks from; summarize is only called on a non-nil
// result.
func execute[T any](kind string, key any, observed bool,
	compute func(*runScope) (*T, error), summarize func(*T) summary) (*T, error) {
	s := beginRun(kind, key)
	var res *T
	var consulted, hit bool
	var err error
	if observed {
		res, err = compute(s)
	} else {
		res, consulted, hit, err = cachedInfo(kind, key, func() (*T, error) { return compute(s) })
	}
	var sum summary
	if res != nil {
		sum = summarize(res)
	}
	s.finish(sum, consulted, hit, err)
	return res, err
}

// OpenLoopOpts overrides the phase lengths of an open-loop run; zero
// fields keep the openloop defaults (10k warmup, 10k measure, 100k drain
// limit). The golden regression figures use shortened phases so CI can
// re-simulate them on every push.
type OpenLoopOpts struct {
	Warmup, Measure, DrainLimit int64
	// Ctx, when non-nil, makes the run — or every point of a sweep built
	// on these options — cancellable: a cancelled run returns promptly
	// with an error wrapping the context's cause, and nothing is cached.
	// Never part of the experiment-cache key.
	Ctx context.Context
	// Hooks attaches the observability layer to a single run; sweeps,
	// whose points run concurrently, ignore it.
	Hooks Hooks
}

// OpenLoopWith runs one open-loop measurement at the given offered load
// (flits/cycle/node).
func OpenLoopWith(p NetworkParams, rate float64, o OpenLoopOpts) (*openloop.Result, error) {
	cfg, err := openLoopConfig(p, o)
	if err != nil {
		return nil, err
	}
	cfg.Rate = rate
	cfg.Obs = o.Hooks.Obs
	cfg.Progress = o.Hooks.Progress
	return openLoopRun(p, cfg)
}

// openLoopConfig materializes everything p names into an openloop
// configuration (without a rate, which sweeps fill per point); Batch and
// barrier take its network, pattern and sizes, Validate fails where it does.
func openLoopConfig(p NetworkParams, o OpenLoopOpts) (openloop.Config, error) {
	netCfg, err := p.Build()
	if err != nil {
		return openloop.Config{}, err
	}
	pat, err := p.BuildPattern()
	if err != nil {
		return openloop.Config{}, err
	}
	sizes, err := p.BuildSizes()
	if err != nil {
		return openloop.Config{}, err
	}
	classes, err := p.BuildClasses()
	if err != nil {
		return openloop.Config{}, err
	}
	return openloop.Config{
		Net:        netCfg,
		Pattern:    pat,
		Sizes:      sizes,
		Classes:    classes,
		Warmup:     o.Warmup,
		Measure:    o.Measure,
		DrainLimit: o.DrainLimit,
		Seed:       p.Seed,
		Ctx:        o.Ctx,
	}, nil
}

// openLoopRun executes one open-loop point. The key is built from the
// plain parameter schema (not the materialized config) with phase lengths
// normalized to their effective values.
func openLoopRun(p NetworkParams, cfg openloop.Config) (*openloop.Result, error) {
	key := openLoopKey{
		Params:  p.cacheNorm(),
		Rate:    cfg.Rate,
		Warmup:  defaulted(cfg.Warmup, openloop.DefaultWarmup),
		Measure: defaulted(cfg.Measure, openloop.DefaultMeasure),
		Drain:   defaulted(cfg.DrainLimit, openloop.DefaultDrainLimit),
	}
	return execute("openloop", key, cfg.Obs != nil || cfg.Progress != nil,
		func(s *runScope) (*openloop.Result, error) {
			cfg.OnEngine, cfg.Inspect = s.hooks()
			return openloop.Run(cfg)
		},
		func(r *openloop.Result) summary {
			return summary{cycles: r.EndCycle, faults: r.Faults, classes: r.PerClass}
		})
}

// defaulted normalizes a zero "use the default" knob to its effective
// value so both spellings share a cache entry.
func defaulted[T int | int64 | uint64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// UtilizationHeatmap folds the sampled per-router crossbar utilization
// into a heatmap shaped like the topology: one cell per router, laid out
// row-major for 2D grids (meshes and tori) and as a single row otherwise.
func UtilizationHeatmap(t *obs.Telemetry, topo *topology.Topology) *stats.Heatmap {
	util := t.MeanXbarUtil(topo.N)
	rows, cols := 1, topo.N
	if topo.Dims == 2 {
		cols, rows = topo.K[0], topo.K[1]
	}
	m := stats.NewHeatmap(rows, cols)
	for node, u := range util {
		m.Set(node/cols, node%cols, u)
	}
	return m
}

// OpenLoopSweepWith produces a latency-vs-load curve over the given rates:
// the stable prefix plus the first unstable point. Each point goes through
// the experiment cache individually inside the sweep's parallel waves, so a
// warm sweep costs only disk reads while a cold one still fans out across
// cores. With screening enabled (EnableScreening),
// predicted deep-saturation rates are kept out of the waves entirely; the
// reported results are bit-identical either way (see screen.go).
func OpenLoopSweepWith(p NetworkParams, rates []float64, o OpenLoopOpts) ([]*openloop.Result, error) {
	cfg, err := openLoopConfig(p, o)
	if err != nil {
		return nil, err
	}
	runner := func(c openloop.Config) (*openloop.Result, error) {
		return openLoopRun(p, c)
	}
	scr := screenPlan(p)
	start := time.Now()
	res, err := openloop.SweepScreenedWith(cfg, rates, runner, scr)
	if scr != nil {
		recordScreen(p, scr.Stats, start)
	}
	return res, err
}

// BatchParams are the closed-loop batch-model knobs layered on top of the
// network parameters.
type BatchParams struct {
	B   int // batch size b (default 1000, the paper's steady-state choice)
	M   int // max outstanding requests m
	NAR float64
	// Reply selects the reply-latency model; nil keeps the baseline
	// immediate reply.
	Reply closedloop.ReplyModel
	// Kernel enables the OS-traffic model.
	Kernel *closedloop.KernelConfig
	// Hooks attaches the observability layer.
	Hooks Hooks
	// Ctx, when non-nil, makes the run cancellable (see OpenLoopOpts.Ctx).
	// Never part of the experiment-cache key.
	Ctx context.Context
}

// Batch's values for a zero B and M.
const defaultB, defaultM = 1000, 1

// Batch runs one closed-loop batch-model measurement.
func Batch(p NetworkParams, bp BatchParams) (*closedloop.BatchResult, error) {
	built, err := openLoopConfig(p, OpenLoopOpts{})
	if err != nil {
		return nil, err
	}
	bp.B, bp.M = defaulted(bp.B, defaultB), defaulted(bp.M, defaultM)
	reply := ""
	if bp.Reply != nil {
		reply = bp.Reply.Name()
	}
	key := batchKey{Params: p.cacheNorm(), B: bp.B, M: bp.M, NAR: bp.NAR, Reply: reply, Kernel: bp.Kernel}
	return execute("batch", key, bp.Hooks != (Hooks{}),
		func(s *runScope) (*closedloop.BatchResult, error) {
			cfg := closedloop.BatchConfig{
				Net:      built.Net,
				Pattern:  built.Pattern,
				B:        bp.B,
				M:        bp.M,
				NAR:      bp.NAR,
				Reply:    bp.Reply,
				Kernel:   bp.Kernel,
				Seed:     p.Seed,
				Obs:      bp.Hooks.Obs,
				Progress: bp.Hooks.Progress,
				Ctx:      bp.Ctx,
			}
			cfg.OnEngine, cfg.Inspect = s.hooks()
			return closedloop.RunBatch(cfg)
		},
		func(r *closedloop.BatchResult) summary {
			return summary{cycles: r.Runtime, faults: r.Faults}
		})
}

// Barrier runs one closed-loop barrier-model measurement.
func Barrier(p NetworkParams, b, phases int) (*closedloop.BarrierResult, error) {
	return barrier(nil, p, b, phases)
}

// barrier is Barrier under RunContext's cancellation context (nil = not
// cancellable): a cancelled run returns promptly with an error wrapping
// the context's cause, and nothing is cached.
func barrier(ctx context.Context, p NetworkParams, b, phases int) (*closedloop.BarrierResult, error) {
	built, err := openLoopConfig(p, OpenLoopOpts{})
	if err != nil {
		return nil, err
	}
	key := barrierKey{Params: p.cacheNorm(), B: b, Phases: phases}
	return execute("barrier", key, false,
		func(s *runScope) (*closedloop.BarrierResult, error) {
			cfg := closedloop.BarrierConfig{
				Net:     built.Net,
				Pattern: built.Pattern,
				Sizes:   built.Sizes,
				B:       b,
				Phases:  phases,
				Seed:    p.Seed,
				Ctx:     ctx,
			}
			cfg.OnEngine, cfg.Inspect = s.hooks()
			return closedloop.RunBarrier(cfg)
		},
		func(r *closedloop.BarrierResult) summary {
			return summary{cycles: r.Runtime, faults: r.Faults}
		})
}

// ExecParams configure one execution-driven run.
type ExecParams struct {
	Benchmark string
	// Clock sets the timer period; the zero value is 75 MHz, while a spec
	// with no clock runs at 3 GHz (see ExperimentSpec.Clock).
	Clock workload.Clock
	// Timer enables the periodic timer-interrupt model.
	Timer bool
	// Ideal runs on the ideal network instead of the configured one
	// (used for NAR characterization, Table III).
	Ideal bool
	// SampleInterval and CollectMatrix pass through to the CMP config.
	SampleInterval int64
	CollectMatrix  bool
	Seed           uint64
}

// Exec runs the execution-driven CMP simulation of one benchmark. The
// network parameters select the interconnect; the paper's Table II setup is
// a 4x4 mesh with 8 VCs and 4-flit buffers.
func Exec(p NetworkParams, ep ExecParams) (*cmp.Result, error) {
	return exec(nil, p, ep)
}

// exec is Exec under a cancellation context (see barrier).
func exec(ctx context.Context, p NetworkParams, ep ExecParams) (*cmp.Result, error) {
	prof, err := workload.ByName(ep.Benchmark)
	if err != nil {
		return nil, err
	}
	// A zero seed means the network seed.
	ep.Seed = defaulted(ep.Seed, p.Seed)
	key := execKey{Params: p.cacheNorm(), Exec: ep}
	// An exec run is never observed because ExecParams has no Hooks yet.
	// cmp.System.Run is an engine.RunOutcome loop like batch and barrier;
	// nothing hands it runScope.hooks().
	return execute("exec", key, false,
		func(*runScope) (*cmp.Result, error) { return execProfile(ctx, p, ep, prof) },
		func(r *cmp.Result) summary { return summary{cycles: r.Cycles} })
}

// checkExecTopology rejects an interconnect without one node per CMP tile.
func checkExecTopology(topo *topology.Topology) error {
	if tiles := cmp.DefaultConfig().Tiles; topo.N != tiles {
		return fmt.Errorf("core: execution-driven runs need a %d-node topology, got %s", tiles, topo.Name)
	}
	return nil
}

func execProfile(ctx context.Context, p NetworkParams, ep ExecParams, prof workload.Profile) (*cmp.Result, error) {
	cfg := cmp.DefaultConfig()
	cfg.Ctx = ctx
	cfg.SampleInterval = ep.SampleInterval
	cfg.CollectMatrix = ep.CollectMatrix
	if ep.Timer {
		cfg.TimerPeriod = prof.TimerPeriod(ep.Clock)
		cfg.TimerHandlerInsts = prof.TimerHandlerInsts
	}

	var fab cmp.Fabric
	if ep.Ideal {
		fab = cmp.NewIdealFabric()
	} else {
		netCfg, err := p.Build()
		if err != nil {
			return nil, err
		}
		if err := checkExecTopology(netCfg.Topo); err != nil {
			return nil, err
		}
		fab = cmp.NetFabric{Network: network.New(netCfg)}
	}
	sys, err := cmp.NewSystem(cfg, fab, workload.Programs(prof, cfg.Tiles, ep.Seed))
	if err != nil {
		return nil, err
	}
	prof.Warm(sys, cfg.Tiles)
	res := sys.Run()
	if res.Canceled {
		return nil, fmt.Errorf("core: execution-driven run of %s canceled at cycle %d: %w",
			prof.Name, res.Cycles, context.Cause(ctx))
	}
	if !res.Completed {
		return res, fmt.Errorf("core: execution-driven run of %s hit the cycle limit", prof.Name)
	}
	return res, nil
}

// Table2Network returns the Table II interconnect parameters: a 4x4 mesh
// with 8 VCs, 4-flit buffers, DOR and the given router delay.
func Table2Network(tr int64) NetworkParams {
	return NetworkParams{
		Topology:    "mesh4x4",
		VCs:         8,
		BufDepth:    4,
		RouterDelay: tr,
		Routing:     "dor",
		Arb:         "rr",
		Pattern:     "uniform",
		Sizes:       "single",
		Seed:        1,
		Shards:      EnvShards(),
	}
}
