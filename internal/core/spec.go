package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"noceval/internal/closedloop"
	"noceval/internal/cmp"
	"noceval/internal/expcache"
	"noceval/internal/openloop"
	"noceval/internal/par"
	"noceval/internal/workload"
)

// ExperimentSpec is a declarative, JSON-serializable description of one
// experiment, so studies can be captured in version-controlled files and
// rerun exactly (`noceval run -config exp.json`).
type ExperimentSpec struct {
	// Kind selects the methodology: "openloop", "sweep", "batch",
	// "barrier", "exec" or "characterize".
	Kind string `json:"kind"`

	// Network parameters (Table I); zero values take the baseline.
	Network NetworkParams `json:"network"`

	// Open-loop settings.
	Rate  float64   `json:"rate,omitempty"`
	Rates []float64 `json:"rates,omitempty"`
	// Open-loop phase-length overrides in cycles (openloop and sweep
	// kinds); zero keeps the methodology defaults (10k warmup, 10k
	// measure, 100k drain limit). The experiment cache normalizes the zero
	// and explicit-default spellings onto one entry, so adding these to a
	// spec never forks cache keys for default-phase runs.
	Warmup     int64 `json:"warmup,omitempty"`
	Measure    int64 `json:"measure,omitempty"`
	DrainLimit int64 `json:"drainLimit,omitempty"`

	// Closed-loop settings.
	B      int                      `json:"b,omitempty"`
	M      int                      `json:"m,omitempty"`
	NAR    float64                  `json:"nar,omitempty"`
	Phases int                      `json:"phases,omitempty"`
	Reply  *ReplySpec               `json:"reply,omitempty"`
	Kernel *closedloop.KernelConfig `json:"kernel,omitempty"`

	// Execution-driven settings.
	Benchmark string `json:"benchmark,omitempty"`
	// Clock is "75mhz" or "3ghz", in any case; empty is 3 GHz, while the
	// zero ExecParams.Clock is 75 MHz. The spelling enters Hash, so
	// programs spell it with workload.Clock.SpecName: equal runs then get
	// equal hashes.
	Clock string `json:"clock,omitempty"`
	Timer bool   `json:"timer,omitempty"`
	Ideal bool   `json:"ideal,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// ReplySpec is the JSON form of a reply-latency model.
type ReplySpec struct {
	Type     string  `json:"type"` // "immediate", "fixed", "probabilistic"
	Latency  int64   `json:"latency,omitempty"`
	L2       int64   `json:"l2,omitempty"`
	Memory   int64   `json:"memory,omitempty"`
	MissRate float64 `json:"missRate,omitempty"`
}

// Build converts the spec to a ReplyModel, checked the way RunBatch checks
// it (a spec carries no cycle limit, so against the run's default one).
func (r *ReplySpec) Build() (closedloop.ReplyModel, error) {
	if r == nil {
		return nil, nil
	}
	var m closedloop.ReplyModel
	switch r.Type {
	case "", "immediate":
		m = closedloop.ImmediateReply{}
	case "fixed":
		m = closedloop.FixedReply{Latency: r.Latency}
	case "probabilistic":
		m = closedloop.ProbabilisticReply{
			L2Latency:     r.L2,
			MemoryLatency: r.Memory,
			MissRate:      r.MissRate,
		}
	default:
		return nil, fmt.Errorf("core: unknown reply model %q", r.Type)
	}
	if err := closedloop.CheckReply(m, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseSpec decodes a JSON experiment spec, filling network defaults from
// the Table I baseline.
func ParseSpec(data []byte) (*ExperimentSpec, error) {
	spec := &ExperimentSpec{Network: Baseline()}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("core: bad experiment spec: %w", err)
	}
	if spec.Network.Topology == "" {
		spec.Network = Baseline()
	}
	// Normalize an explicit empty class list to nil: both spell "no QoS
	// classes", and the canonical form must survive a marshal/re-parse
	// round trip (Classes is json-omitted when empty).
	if len(spec.Network.Classes) == 0 {
		spec.Network.Classes = nil
	}
	return spec, nil
}

// Hash returns the spec's content address: the SHA-256 over the
// canonical JSON encoding, salted with the cache schema version — the key
// the experiment service coalesces identical in-flight submissions by and
// stamps job records with. The network enters it the way it enters
// experiment-cache keys (cacheNorm): the shard count — which ParseSpec's
// Baseline reads from the server's NOCEVAL_SHARDS — never changes a
// result, so it must not change the address either. Otherwise two specs
// hash equal iff a ParseSpec round trip leaves them identical, so the
// hash is stable across processes, environments and sessions the same way
// experiment-cache keys are.
func (s *ExperimentSpec) Hash() (string, error) {
	norm := *s
	norm.Network = s.Network.cacheNorm()
	k, err := expcache.KeyFor(CacheSchemaVersion, "spec", &norm)
	if err != nil {
		return "", err
	}
	return k.Hash(), nil
}

// Validate materializes everything the spec names — kind, network,
// pattern, sizes, QoS classes, reply model, clock, benchmark — and applies
// the runners' own validators to the per-kind numbers, without running
// anything. RunContext starts with it, so its error is exactly a run's; the
// experiment service calls it so a bad spec is a synchronous 400, not a job.
func (s *ExperimentSpec) Validate() error {
	switch s.Kind {
	case "openloop":
		if s.Rate <= 0 {
			return fmt.Errorf("core: openloop spec needs a positive rate")
		}
	case "sweep", "batch", "barrier":
	case "exec", "characterize":
		if _, err := workload.ParseClock(s.Clock); err != nil {
			return fmt.Errorf("core: %v", err)
		}
		if _, err := workload.ByName(s.Benchmark); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown experiment kind %q", s.Kind)
	}
	cfg, err := openLoopConfig(s.Network, OpenLoopOpts{})
	if err != nil {
		return err
	}
	if _, err := s.Reply.Build(); err != nil {
		return err
	}
	switch s.Kind {
	case "openloop":
		return openloop.CheckPhases(s.Warmup, s.Measure, s.DrainLimit)
	case "sweep":
		if err := openloop.CheckPhases(s.Warmup, s.Measure, s.DrainLimit); err != nil {
			return err
		}
		return openloop.CheckRate(s.Rates...)
	case "batch":
		b := defaulted(s.B, defaultB)
		if err := closedloop.CheckBatch(b, defaulted(s.M, defaultM)); err != nil {
			return err
		}
		return closedloop.CheckKernel(s.Kernel, b)
	case "barrier":
		return closedloop.CheckBarrier(s.B, s.Phases)
	case "exec":
		if !s.Ideal {
			return checkExecTopology(cfg.Net.Topo)
		}
	}
	return nil
}

// Result is what one spec's run produced: the field of its kind is set,
// every other field is nil (Sweep for "sweep", Model for "characterize").
type Result struct {
	OpenLoop *openloop.Result
	Sweep    []*openloop.Result
	Batch    *closedloop.BatchResult
	Barrier  *closedloop.BarrierResult
	Exec     *cmp.Result
	Model    *BenchmarkModel
}

// RunSet simulates each distinct spec — by Hash — once over its life:
// every RunAll call on a set reuses the results of the calls before it,
// so duplicate specs, in one call or across calls, share one *Result, and
// callers must treat results as read-only. The zero value is an empty
// set. A RunSet is not safe for concurrent use.
type RunSet struct {
	done map[string]*Result
}

// RunAll validates every spec, then simulates, concurrently, each
// distinct one the set has not run yet, and returns the results in input
// order. The first error, of a validation or of a run, is returned, and
// the set keeps no result of that call.
func (rs *RunSet) RunAll(ctx context.Context, specs []ExperimentSpec) ([]*Result, error) {
	hashes := make([]string, len(specs))
	var todo []int // the first spec of each hash the set has not run
	queued := map[string]bool{}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		h, err := specs[i].Hash()
		if err != nil {
			return nil, err
		}
		hashes[i] = h
		if _, ok := rs.done[h]; !ok && !queued[h] {
			queued[h] = true
			todo = append(todo, i)
		}
	}
	res := make([]*Result, len(todo))
	if err := par.Parallel(len(todo), 0, func(k int) (err error) {
		res[k], err = specs[todo[k]].run(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	if rs.done == nil {
		rs.done = map[string]*Result{}
	}
	for k, i := range todo {
		rs.done[hashes[i]] = res[k]
	}
	out := make([]*Result, len(specs))
	for i, h := range hashes {
		out[i] = rs.done[h]
	}
	return out, nil
}

// run dispatches a validated spec to the runner of its kind.
func (s *ExperimentSpec) run(ctx context.Context) (*Result, error) {
	// Validate has built both already; neither can fail here.
	clock, _ := workload.ParseClock(s.Clock)
	reply, _ := s.Reply.Build()
	opts := OpenLoopOpts{Warmup: s.Warmup, Measure: s.Measure, DrainLimit: s.DrainLimit, Ctx: ctx}
	var r Result
	var err error
	switch s.Kind {
	case "openloop":
		r.OpenLoop, err = OpenLoopWith(s.Network, s.Rate, opts)
	case "sweep":
		rates := s.Rates
		if len(rates) == 0 {
			for r := 0.05; r <= 0.5; r += 0.05 {
				rates = append(rates, r)
			}
		}
		r.Sweep, err = OpenLoopSweepWith(s.Network, rates, opts)
	case "batch":
		r.Batch, err = Batch(s.Network, BatchParams{B: s.B, M: s.M, NAR: s.NAR, Reply: reply, Kernel: s.Kernel, Ctx: ctx})
	case "barrier":
		r.Barrier, err = barrier(ctx, s.Network, s.B, defaulted(s.Phases, 1))
	case "exec":
		r.Exec, err = exec(ctx, s.Network, ExecParams{
			Benchmark: s.Benchmark, Clock: clock, Timer: s.Timer, Ideal: s.Ideal, Seed: s.Seed,
		})
	case "characterize":
		r.Model, err = characterize(ctx, s.Benchmark, clock, s.Seed)
	}
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// RunContext executes the experiment and returns a human-readable report,
// with the effective value of every defaulted knob. The context (nil = not
// cancellable) is threaded into the engine's cycle loop, so a cancelled
// experiment — even a multi-point sweep — returns promptly with an error
// wrapping the context's cause, and no partial result is cached.
func (s *ExperimentSpec) RunContext(ctx context.Context) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	res, err := s.run(ctx)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	switch s.Kind {
	case "openloop":
		r := res.OpenLoop
		fmt.Fprintf(&b, "openloop %s rate=%.3f\n", s.Network, s.Rate)
		fmt.Fprintf(&b, "avg latency %.2f +/- %.2f, worst %.2f, accepted %.3f, stable %v\n",
			r.AvgLatency, r.LatencyCI95, r.WorstLatency, r.Accepted, r.Stable)
	case "sweep":
		fmt.Fprintf(&b, "sweep %s\n%10s %12s %8s\n", s.Network, "rate", "latency", "stable")
		for _, r := range res.Sweep {
			fmt.Fprintf(&b, "%10.3f %12.2f %8v\n", r.Rate, r.AvgLatency, r.Stable)
		}
	case "batch":
		r := res.Batch
		fmt.Fprintf(&b, "batch %s b=%d m=%d\n", s.Network, defaulted(s.B, defaultB), defaulted(s.M, defaultM))
		fmt.Fprintf(&b, "runtime %d, throughput %.4f, packets %d (kernel %d)\n",
			r.Runtime, r.Throughput, r.TotalPackets, r.KernelPackets)
	case "barrier":
		r := res.Barrier
		fmt.Fprintf(&b, "barrier %s b=%d phases=%d\n", s.Network, s.B, defaulted(s.Phases, 1))
		fmt.Fprintf(&b, "runtime %d, throughput %.4f\n", r.Runtime, r.Throughput)
	case "exec":
		r := res.Exec
		clock, _ := workload.ParseClock(s.Clock)
		fmt.Fprintf(&b, "exec %s on %s (clock %s, timer %v)\n", s.Benchmark, s.Network, clock, s.Timer)
		fmt.Fprintf(&b, "cycles %d, NAR %.4f (user %.4f kernel %.4f), L2 miss %.3f/%.3f\n",
			r.Cycles, r.NAR, r.UserNAR, r.KernelNAR, r.L2MissRate[0], r.L2MissRate[1])
	case "characterize":
		m := res.Model
		fmt.Fprintf(&b, "characterize %s @ %s\n", m.Name, m.Clock)
		fmt.Fprintf(&b, "NAR %.4f (user %.4f kernel %.4f), L2 miss %.3f, static kernel %.3f, timer %d x %d\n",
			m.NAR, m.UserNAR, m.KernelNAR, m.L2Miss, m.StaticKernelFrac, m.TimerPeriod, m.TimerBatch)
	}
	return b.String(), nil
}
