// Command noceval runs a single experiment of the on-chip network
// evaluation framework from the command line.
//
// Each subcommand turns its flags into one core.ExperimentSpec and runs it
// the way `noceval run` runs a spec file: the same run path, and the same
// report of its kind that nocd returns for the spec.
//
//	noceval openloop -rate 0.2 [-topo mesh8x8] [-routing dor] ...
//	noceval sweep    -hi 0.5 [net flags]            # latency/load curve
//	noceval batch    -b 1000 -m 4 [-nar 0.3] [-reply fixed:20|prob:20:300:0.1]
//	noceval barrier  -b 1000 [-phases 1]
//	noceval exec     -bench lu [-tr 1] [-clock 75mhz|3ghz] [-timer]
//	noceval char     -bench lu [-clock 3ghz]        # Table III/IV characterization
//	noceval run      -config exp.json               # a JSON experiment spec
//
// Network flags shared by all network subcommands:
//
//	-topo mesh8x8|torus8x8|ring64|mesh16x16|mesh4x4
//	-routing dor|val|ma|romm    -vcs 2   -q 16   -tr 1
//	-arb rr|age   -pattern uniform|transpose|bitcomp|bitrev  -sizes single|bimodal
//	-seed 1
//
// Fault-injection flags (openloop, sweep, batch, barrier; all default off):
//
//	-fault-corrupt 1e-4   per-link flit corruption probability
//	-fault-drop 1e-4      per-link packet drop probability
//	-fault-outage n:p:t0:t1   link n.p down for [t0,t1) (repeatable)
//	-fault-kill n@t       kill router n at cycle t (repeatable)
//	-fault-timeout 500    enable recovery NIC: retransmission timeout
//	-fault-retries 4      max retransmissions   -fault-retry-cap 8  MSHR cap
//	-fault-seed 0         fault RNG seed (0 = derived from -seed)
//
// Observability flags. The observed kinds, openloop and batch, take them
// all: the first five set the spec's Hooks. sweep and barrier take the
// last three, exec only the profiling pair:
//
//	-metrics            collect metrics + per-router telemetry, write under -obs-out
//	-trace              record flit lifecycles, write a Chrome trace (chrome://tracing)
//	-sample-every 100   telemetry sampling period in cycles
//	-obs-out dir        output directory (default results/telemetry)
//	-progress           heartbeat with cycles/sec and ETA on stderr
//	-cpuprofile f.pprof -memprofile f.pprof
//	-ledger runs.jsonl  append one structured record per experiment run
//	-serve :9500        live metrics endpoint (/metrics, /progress, ...)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/openloop"
	"noceval/internal/workload"
)

// A subcommand registers its flags on fs, and o's that apply to it, and
// returns the builder of its spec, called once fs is parsed.
type subcommand func(fs *flag.FlagSet, o *obsOpts) func() (*core.ExperimentSpec, error)

var subcommands = map[string]subcommand{
	"openloop": openLoopCmd,
	"sweep":    sweepCmd,
	"batch":    batchCmd,
	"barrier":  barrierCmd,
	"exec":     execCmd,
	"char":     charCmd,
	"run":      runCmd,
}

var errUsage = errors.New("usage: noceval <openloop|sweep|batch|barrier|exec|char|run> [flags]")

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	if err := run(os.Stdout, os.Args[1], os.Args[2:]); err != nil {
		if errors.Is(err, errUsage) {
			usage()
		}
		fmt.Fprintln(os.Stderr, "noceval:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, errUsage)
	os.Exit(2)
}

// parse builds the spec the flag line args of subcommand name describes,
// and the run options its flags set.
func parse(name string, args []string) (*core.ExperimentSpec, *obsOpts, error) {
	cmd, ok := subcommands[name]
	if !ok {
		return nil, nil, errUsage
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	o := &obsOpts{}
	build := cmd(fs, o)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	spec, err := build()
	return spec, o, err
}

// run is the one path of every subcommand: build the spec, open the
// session, profile, run the spec, write what the observer collected and
// print the report to w, then the session summary.
func run(w io.Writer, name string, args []string) error {
	spec, o, err := parse(name, args)
	if err != nil {
		return err
	}
	if err := o.sess.Open(); err != nil {
		return err
	}
	defer o.teardown(w)
	if err := o.startProfiling(); err != nil {
		return err
	}
	spec.Hooks = o.hooks()
	report, err := o.sess.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	if err := o.writeOutputs(spec.Hooks, spec.Network.Topology); err != nil {
		return err
	}
	if err := o.stopProfiling(); err != nil {
		return err
	}
	_, err = io.WriteString(w, report)
	return err
}

// netFlags registers the network and fault-injection flags, and the QoS
// class flags when classes is set; the builder returns the parameters
// they select.
func netFlags(fs *flag.FlagSet, classes bool) func() (core.NetworkParams, error) {
	p := core.Baseline()
	fs.StringVar(&p.Topology, "topo", p.Topology, "topology (mesh8x8, torus8x8, ring64, ...)")
	fs.StringVar(&p.Routing, "routing", p.Routing, "routing algorithm (dor, val, ma, romm)")
	fs.IntVar(&p.VCs, "vcs", p.VCs, "virtual channels per port")
	fs.IntVar(&p.BufDepth, "q", p.BufDepth, "VC buffer depth in flits")
	fs.Int64Var(&p.RouterDelay, "tr", p.RouterDelay, "router delay in cycles")
	fs.StringVar(&p.Arb, "arb", p.Arb, "arbitration (rr, age)")
	fs.StringVar(&p.Pattern, "pattern", p.Pattern, "traffic pattern")
	fs.StringVar(&p.Sizes, "sizes", p.Sizes, "packet sizes (single, bimodal)")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.IntVar(&p.Shards, "shards", core.EnvShards(),
		"spatial tiles stepped concurrently per cycle (0/1 sequential; bit-identical at any count; default $NOCEVAL_SHARDS)")
	fo := faultFlags(fs)
	var co *classOpts
	if classes {
		co = classFlags(fs)
	}
	return func() (core.NetworkParams, error) {
		p.Fault = fo.build()
		if co != nil {
			if err := co.apply(&p); err != nil {
				return p, err
			}
		}
		return p, nil
	}
}

func openLoopCmd(fs *flag.FlagSet, o *obsOpts) func() (*core.ExperimentSpec, error) {
	net := netFlags(fs, true)
	rate := fs.Float64("rate", 0.1, "offered load in flits/cycle/node")
	o.observeFlags(fs)
	return func() (*core.ExperimentSpec, error) {
		p, err := net()
		return &core.ExperimentSpec{Kind: "openloop", Network: p, Rate: *rate}, err
	}
}

func sweepCmd(fs *flag.FlagSet, o *obsOpts) func() (*core.ExperimentSpec, error) {
	net := netFlags(fs, true)
	hi := fs.Float64("hi", 0.5, "highest offered load")
	step := fs.Float64("step", 0.02, "load step")
	o.sessionFlags(fs)
	fs.BoolVar(&o.sess.Screen, "screen", false, "analytically screen the sweep: skip predicted deep-saturation simulations (output is bit-identical)")
	return func() (*core.ExperimentSpec, error) {
		p, err := net()
		rates := openloop.Rates(*step, *hi)
		if err == nil && len(rates) == 0 {
			err = fmt.Errorf("sweep: no offered load in (0, %g] at step %g", *hi, *step)
		}
		return &core.ExperimentSpec{Kind: "sweep", Network: p, Rates: rates}, err
	}
}

func batchCmd(fs *flag.FlagSet, o *obsOpts) func() (*core.ExperimentSpec, error) {
	net := netFlags(fs, false)
	b := fs.Int("b", 1000, "batch size per node")
	m := fs.Int("m", 1, "max outstanding requests per node")
	nar := fs.Float64("nar", 0, "network access rate (0 or 1 = baseline)")
	reply := fs.String("reply", "", "reply model: fixed:<lat> or prob:<l2>:<mem>:<missrate>")
	kernelStatic := fs.Float64("kstatic", 0, "kernel static traffic fraction")
	kernelPeriod := fs.Int64("kperiod", 0, "kernel timer period in cycles")
	kernelBatch := fs.Int("kbatch", 0, "kernel transactions per timer interrupt")
	o.observeFlags(fs)
	return func() (*core.ExperimentSpec, error) {
		p, err := net()
		if err != nil {
			return nil, err
		}
		spec := &core.ExperimentSpec{Kind: "batch", Network: p, B: *b, M: *m, NAR: *nar}
		if spec.Reply, err = parseReply(*reply); err != nil {
			return nil, err
		}
		if *kernelStatic > 0 || *kernelPeriod > 0 {
			spec.Kernel = &closedloop.KernelConfig{
				StaticFraction: *kernelStatic,
				TimerPeriod:    *kernelPeriod,
				TimerBatch:     *kernelBatch,
			}
		}
		return spec, nil
	}
}

// parseReply reads the -reply flag: "" (the immediate reply),
// fixed:<latency> or prob:<l2>:<mem>:<missrate>.
func parseReply(s string) (*core.ReplySpec, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	switch parts[0] {
	case "fixed":
		if len(parts) != 2 {
			return nil, fmt.Errorf("reply spec: want fixed:<latency>")
		}
		lat, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, err
		}
		return &core.ReplySpec{Type: "fixed", Latency: lat}, nil
	case "prob":
		if len(parts) != 4 {
			return nil, fmt.Errorf("reply spec: want prob:<l2>:<mem>:<missrate>")
		}
		l2, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, err
		}
		mem, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, err
		}
		mr, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, err
		}
		return &core.ReplySpec{Type: "probabilistic", L2: l2, Memory: mem, MissRate: mr}, nil
	default:
		return nil, fmt.Errorf("reply spec: unknown model %q", parts[0])
	}
}

func barrierCmd(fs *flag.FlagSet, o *obsOpts) func() (*core.ExperimentSpec, error) {
	net := netFlags(fs, false)
	b := fs.Int("b", 1000, "packets per node per phase")
	phases := fs.Int("phases", 1, "barrier phases")
	o.sessionFlags(fs)
	return func() (*core.ExperimentSpec, error) {
		p, err := net()
		return &core.ExperimentSpec{Kind: "barrier", Network: p, B: *b, Phases: *phases}, err
	}
}

// clockFlag registers -clock; its parser returns the clock's spelling in a
// spec.
func clockFlag(fs *flag.FlagSet, usage string) func() (string, error) {
	s := fs.String("clock", "3ghz", usage)
	return func() (string, error) {
		clock, err := workload.ParseClock(*s)
		if err != nil {
			return "", fmt.Errorf("%v (want 75mhz or 3ghz)", err)
		}
		return clock.SpecName(), nil
	}
}

func execCmd(fs *flag.FlagSet, o *obsOpts) func() (*core.ExperimentSpec, error) {
	bench := fs.String("bench", "blackscholes", "benchmark (blackscholes, lu, canneal, fft, barnes)")
	tr := fs.Int64("tr", 1, "router delay")
	clock := clockFlag(fs, "core clock (75mhz, 3ghz)")
	timer := fs.Bool("timer", false, "enable timer interrupts")
	ideal := fs.Bool("ideal", false, "use the ideal network")
	seed := fs.Uint64("seed", 7, "random seed")
	o.profileFlags(fs)
	return func() (*core.ExperimentSpec, error) {
		c, err := clock()
		return &core.ExperimentSpec{Kind: "exec", Network: core.Table2Network(*tr), Benchmark: *bench,
			Clock: c, Timer: *timer, Ideal: *ideal, Seed: *seed}, err
	}
}

func charCmd(fs *flag.FlagSet, _ *obsOpts) func() (*core.ExperimentSpec, error) {
	bench := fs.String("bench", "blackscholes", "benchmark")
	clock := clockFlag(fs, "core clock")
	seed := fs.Uint64("seed", 7, "random seed")
	return func() (*core.ExperimentSpec, error) {
		c, err := clock()
		return &core.ExperimentSpec{Kind: "characterize", Network: core.Baseline(), Benchmark: *bench,
			Clock: c, Seed: *seed}, err
	}
}

// runCmd reads a declarative JSON experiment spec.
func runCmd(fs *flag.FlagSet, _ *obsOpts) func() (*core.ExperimentSpec, error) {
	path := fs.String("config", "", "path to a JSON experiment spec")
	return func() (*core.ExperimentSpec, error) {
		if *path == "" {
			return nil, fmt.Errorf("run: -config is required")
		}
		data, err := os.ReadFile(*path)
		if err != nil {
			return nil, err
		}
		return core.ParseSpec(data)
	}
}
