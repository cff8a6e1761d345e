package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"noceval/internal/closedloop"
	"noceval/internal/cmp"
	"noceval/internal/expcache"
	"noceval/internal/fault"
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
	// Matrix collects the traffic matrices, and a positive SampleInterval
	// samples the injection-rate timeline every that many cycles (exec only).
	Matrix         bool  `json:"matrix,omitempty"`
	SampleInterval int64 `json:"sampleInterval,omitempty"`

	// Hooks attaches the observability layer to an openloop or batch run;
	// Validate rejects them on every other kind. They are not part of the
	// experiment: outside JSON, Hash and every cache and run key.
	Hooks Hooks `json:"-"`
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
// anything. Session.Run starts with it, so its error is exactly a run's; the
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
	if s.Hooks != (Hooks{}) && s.Kind != "openloop" && s.Kind != "batch" {
		return fmt.Errorf("core: %s specs cannot be observed: hooks attach to openloop and batch runs only", s.Kind)
	}
	if (s.Matrix || s.SampleInterval != 0) && s.Kind != "exec" {
		return fmt.Errorf("core: %s specs take no matrix or sampleInterval: they select exec outputs", s.Kind)
	}
	if s.SampleInterval < 0 || s.SampleInterval > 0 && s.SampleInterval < minSampleInterval {
		return fmt.Errorf("core: sampleInterval %d: want 0 (no timeline) or at least %d cycles", s.SampleInterval, minSampleInterval)
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

// minSampleInterval is the shortest timeline sampling interval a spec may
// ask for: a run up to cmp's cycle cap then holds at most 200k samples.
const minSampleInterval = 1000

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

// RunSet simulates each distinct run once over its life, by the run key
// the experiment cache and the ledger address it by: a batch cell, or a
// sweep point that another sweep or an openloop spec also needs, runs once
// per set, and every spec that needs it shares its read-only result. A
// failed run, a point its sweep's wave discards included, is not kept: a
// spec waiting on it runs it again. Observed runs are never shared. The
// zero value is an empty set.
type RunSet struct {
	Session *Session // the session its runs execute in; nil = the default

	mu   sync.Mutex
	runs map[string]*sharedRun
}

// sharedRun is one run of a RunSet; done closes once res and err are set.
type sharedRun struct {
	done chan struct{}
	res  any
	err  error
}

// runSetKey keys the RunSet that RunAll hands to the run path in ctx.
type runSetKey struct{}

// RunAll validates every spec, then simulates them concurrently through
// the set and returns the results in input order. The first error, of a
// validation or of a run, is returned.
func (rs *RunSet) RunAll(ctx context.Context, specs []ExperimentSpec) ([]*Result, error) {
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	ctx = rs.Session.bind(context.WithValue(ctx, runSetKey{}, rs))
	out := make([]*Result, len(specs))
	if err := par.Parallel(len(specs), 0, func(i int) (err error) {
		out[i], err = specs[i].run(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// share returns the set's result for key: it runs compute when no run of
// key has completed or is in flight, and otherwise waits for the run in
// flight. A failed run is dropped and its waiters try again; a waiter
// whose ctx ends first returns the context's cause.
func (rs *RunSet) share(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	rs.mu.Lock()
	r, wait := rs.runs[key]
	if !wait {
		r = &sharedRun{done: make(chan struct{})}
		if rs.runs == nil {
			rs.runs = map[string]*sharedRun{}
		}
		rs.runs[key] = r
	}
	rs.mu.Unlock()
	if wait {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-r.done:
		}
		if r.err != nil {
			return rs.share(ctx, key, compute)
		}
		return r.res, nil
	}
	if r.res, r.err = compute(); r.err != nil {
		rs.mu.Lock()
		delete(rs.runs, key)
		rs.mu.Unlock()
	}
	close(r.done)
	return r.res, r.err
}

// run dispatches a validated spec to the runner of its kind.
func (s *ExperimentSpec) run(ctx context.Context) (*Result, error) {
	// Validate has parsed it already; it cannot fail here.
	clock, _ := workload.ParseClock(s.Clock)
	opts := OpenLoopOpts{Warmup: s.Warmup, Measure: s.Measure, DrainLimit: s.DrainLimit, Ctx: ctx}
	var r Result
	var err error
	switch s.Kind {
	case "openloop":
		r.OpenLoop, err = openLoop(s.Network, s.Rate, opts, s.Hooks)
	case "sweep":
		rates := s.Rates
		if len(rates) == 0 { // 0.05, 0.1, ..., 0.5
			rates = openloop.Rates(0.05, 0.5)
		}
		r.Sweep, err = OpenLoopSweepWith(s.Network, rates, opts)
	case "batch":
		r.Batch, err = batch(ctx, s)
	case "barrier":
		r.Barrier, err = barrier(ctx, s.Network, s.B, s.Phases)
	case "exec":
		r.Exec, err = exec(ctx, s.Network, ExecParams{
			Benchmark: s.Benchmark, Clock: clock, Timer: s.Timer, Ideal: s.Ideal,
			SampleInterval: s.SampleInterval, CollectMatrix: s.Matrix, Seed: s.Seed,
		})
	case "characterize":
		r.Model, err = characterize(ctx, s.Benchmark, clock, s.Seed)
	}
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// RunContext is Session.Run in the default session.
func (s *ExperimentSpec) RunContext(ctx context.Context) (string, error) {
	return defaultSession.Run(ctx, s)
}

// Run validates s and runs it in sess, returning its report: the one
// rendering of each kind that noceval, `noceval run` and nocd print, with
// the effective value of every defaulted knob. A nil sess is the default
// session. The context (nil = not cancellable) is threaded into the
// engine's cycle loop, so a cancelled experiment — even a multi-point
// sweep — returns promptly with an error wrapping the context's cause, and
// no partial result is cached.
func (sess *Session) Run(ctx context.Context, s *ExperimentSpec) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	res, err := s.run(sess.bind(ctx))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	switch s.Kind {
	case "openloop":
		r := res.OpenLoop
		fmt.Fprintf(&b, "openloop %s rate=%.3f\n", s.Network, s.Rate)
		fmt.Fprintf(&b, "accepted %.3f, stable %v\n", r.Accepted, r.Stable)
		fmt.Fprintf(&b, "avg latency %.2f +/- %.2f cycles (p95 %.1f, p99 %.1f), worst per-node avg %.2f\n",
			r.AvgLatency, r.LatencyCI95, r.P95, r.P99, r.WorstLatency)
		fmt.Fprintf(&b, "avg hops %.2f, measured packets %d\n", r.AvgHops, r.MeasuredPackets)
		if r.LostPackets > 0 {
			fmt.Fprintf(&b, "lost packets %d\n", r.LostPackets)
		}
		writePerClass(&b, r.PerClass)
		writeFaults(&b, r.Faults)
	case "sweep":
		fmt.Fprintf(&b, "sweep %s\n%10s %12s %12s %8s\n", s.Network, "offered", "avg latency", "accepted", "stable")
		for _, r := range res.Sweep {
			fmt.Fprintf(&b, "%10.3f %12.2f %12.3f %8v\n", r.Rate, r.AvgLatency, r.Accepted, r.Stable)
		}
		if len(res.Sweep) > 0 && len(res.Sweep[0].PerClass) > 0 {
			fmt.Fprintf(&b, "\nper-class avg latency (cycles)\n%10s", "offered")
			for _, cr := range res.Sweep[0].PerClass {
				fmt.Fprintf(&b, " %12s", cr.Name)
			}
			b.WriteByte('\n')
			for _, r := range res.Sweep {
				fmt.Fprintf(&b, "%10.3f", r.Rate)
				for _, cr := range r.PerClass {
					fmt.Fprintf(&b, " %12.2f", cr.AvgLatency)
				}
				b.WriteByte('\n')
			}
		}
	case "batch":
		// bench/'s service_mix reads the number after the first "runtime ".
		r := res.Batch
		fmt.Fprintf(&b, "batch %s b=%d m=%d", s.Network, defaulted(s.B, defaultB), defaulted(s.M, defaultM))
		if s.NAR != 0 {
			fmt.Fprintf(&b, " nar=%g", s.NAR)
		}
		fmt.Fprintf(&b, "\nruntime %d cycles (completed %v), throughput %.4f flits/cycle/node\n",
			r.Runtime, r.Completed, r.Throughput)
		fmt.Fprintf(&b, "packets %d (kernel %d), avg packet latency %.2f\n",
			r.TotalPackets, r.KernelPackets, r.AvgPacketLatency)
		if r.FailedTransactions > 0 {
			fmt.Fprintf(&b, "failed transactions %d\n", r.FailedTransactions)
		}
		if r.Stalled {
			fmt.Fprintf(&b, "RUN STALLED (deadlock watchdog):\n%s", r.StallDump)
		}
		writeFaults(&b, r.Faults)
	case "barrier":
		r := res.Barrier
		fmt.Fprintf(&b, "barrier %s b=%d phases=%d\n", s.Network, s.B, defaulted(s.Phases, 1))
		fmt.Fprintf(&b, "runtime %d cycles, throughput %.4f flits/cycle/node\n", r.Runtime, r.Throughput)
		for i, pt := range r.PhaseRuntime {
			fmt.Fprintf(&b, "  phase %d: %d cycles\n", i, pt)
		}
		if r.FailedPackets > 0 {
			fmt.Fprintf(&b, "failed packets %d\n", r.FailedPackets)
		}
		writeFaults(&b, r.Faults)
	case "exec":
		r := res.Exec
		clock, _ := workload.ParseClock(s.Clock)
		net := s.Network.String()
		if s.Ideal {
			net = "the ideal network"
		}
		fmt.Fprintf(&b, "exec %s on %s (clock %s, timer %v)\n", s.Benchmark, net, clock, s.Timer)
		fmt.Fprintf(&b, "runtime %d cycles, %d user + %d kernel instructions\n", r.Cycles, r.UserInsts, r.KernelInsts)
		fmt.Fprintf(&b, "flits %d (kernel %d, %.1f%%), NAR %.4f (user %.4f, kernel %.4f)\n",
			r.TotalFlits, r.KernelFlits, 100*float64(r.KernelFlits)/float64(r.TotalFlits), r.NAR, r.UserNAR, r.KernelNAR)
		fmt.Fprintf(&b, "L1 miss %.3f/%.3f (user/kernel), L2 miss %.3f/%.3f, timer interrupts %d\n",
			r.L1MissRate[0], r.L1MissRate[1], r.L2MissRate[0], r.L2MissRate[1], r.TimerInterrupts)
	case "characterize":
		m := res.Model
		fmt.Fprintf(&b, "characterize %s @ %s\n", m.Name, m.Clock)
		fmt.Fprintf(&b, "ideal cycles %d, total flits %d\n", m.IdealCycles, m.TotalFlits)
		fmt.Fprintf(&b, "NAR %.4f (user %.4f, kernel %.4f)\n", m.NAR, m.UserNAR, m.KernelNAR)
		fmt.Fprintf(&b, "L2 miss %.3f (kernel %.3f)\n", m.L2Miss, m.KernelL2Miss)
		fmt.Fprintf(&b, "static kernel fraction %.3f, timer period %d cycles, timer batch %d\n",
			m.StaticKernelFrac, m.TimerPeriod, m.TimerBatch)
	}
	return b.String(), nil
}

// writePerClass renders the per-class results of a multi-class run.
func writePerClass(b *strings.Builder, per []openloop.ClassResult) {
	if len(per) == 0 {
		return
	}
	fmt.Fprintf(b, "%12s %7s %12s %8s %8s %10s %9s %9s\n",
		"class", "share", "avg latency", "p95", "p99", "accepted", "injected", "delivered")
	for _, cr := range per {
		fmt.Fprintf(b, "%12s %7.2f %12.2f %8.1f %8.1f %10.3f %9d %9d\n",
			cr.Name, cr.Share, cr.AvgLatency, cr.P95, cr.P99, cr.Accepted, cr.Injected, cr.Delivered)
	}
}

// writeFaults renders the fault and recovery counters of a faulted run.
func writeFaults(b *strings.Builder, fs *fault.Stats) {
	if fs == nil {
		return
	}
	fmt.Fprintf(b, "faults: injected %d corrupt + %d drop, detected %d, dead flits %d, dead packets %d\n",
		fs.CorruptInjected, fs.DropInjected, fs.Detected, fs.DeadFlits, fs.DeadPackets)
	if fs.Tracked > 0 {
		fmt.Fprintf(b, "recovery: tracked %d, acked %d, retried %d, abandoned %d, dup %d, outstanding %d\n",
			fs.Tracked, fs.Acked, fs.Retried, fs.Abandoned, fs.Duplicates, fs.Outstanding)
	}
	fmt.Fprintf(b, "delivered fraction %.4f\n", fs.DeliveredFraction)
}
