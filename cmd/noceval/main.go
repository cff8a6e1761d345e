// Command noceval runs a single experiment of the on-chip network
// evaluation framework from the command line.
//
// Subcommands:
//
//	noceval openloop -rate 0.2 [-topo mesh8x8] [-routing dor] ...
//	noceval sweep    -hi 0.5 [net flags]            # latency/load curve
//	noceval batch    -b 1000 -m 4 [-nar 0.3] [-reply fixed:20|prob:20:300:0.1]
//	noceval barrier  -b 1000 [-phases 1]
//	noceval exec     -bench lu [-tr 1] [-clock 75mhz|3ghz] [-timer]
//	noceval char     -bench lu [-clock 3ghz]        # Table III/IV characterization
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
// Observability flags (openloop and batch; sweep takes the last four, exec
// only -cpuprofile and -memprofile):
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
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/workload"
)

func netFlags(fs *flag.FlagSet) *core.NetworkParams {
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
	return &p
}

func parseReply(spec string) (closedloop.ReplyModel, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "fixed":
		if len(parts) != 2 {
			return nil, fmt.Errorf("reply spec: want fixed:<latency>")
		}
		lat, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, err
		}
		return closedloop.FixedReply{Latency: lat}, nil
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
		return closedloop.ProbabilisticReply{L2Latency: l2, MemoryLatency: mem, MissRate: mr}, nil
	default:
		return nil, fmt.Errorf("reply spec: unknown model %q", parts[0])
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "openloop":
		err = cmdOpenLoop(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "batch":
		err = cmdBatch(os.Args[2:])
	case "barrier":
		err = cmdBarrier(os.Args[2:])
	case "exec":
		err = cmdExec(os.Args[2:])
	case "char":
		err = cmdChar(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "noceval:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: noceval <openloop|sweep|batch|barrier|exec|char|run> [flags]")
	os.Exit(2)
}

// cmdRun executes a declarative JSON experiment spec.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	path := fs.String("config", "", "path to a JSON experiment spec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("run: -config is required")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	spec, err := core.ParseSpec(data)
	if err != nil {
		return err
	}
	report, err := spec.RunContext(context.Background())
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func cmdOpenLoop(args []string) error {
	fs := flag.NewFlagSet("openloop", flag.ExitOnError)
	p := netFlags(fs)
	rate := fs.Float64("rate", 0.1, "offered load in flits/cycle/node")
	fo := faultFlags(fs)
	co := classFlags(fs)
	oo := obsFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p.Fault = fo.build()
	if err := co.apply(p); err != nil {
		return err
	}
	if err := oo.sess.Open(); err != nil {
		return err
	}
	defer oo.teardown()
	if err := oo.startProfiling(); err != nil {
		return err
	}
	h := oo.hooks()
	res, err := core.OpenLoopWith(*p, *rate, core.OpenLoopOpts{Hooks: h})
	if err != nil {
		return err
	}
	if err := oo.writeOutputs(h, p.Topology); err != nil {
		return err
	}
	if err := oo.stopProfiling(); err != nil {
		return err
	}
	fmt.Printf("config: %s\n", p)
	fmt.Printf("offered %.3f accepted %.3f stable %v\n", res.Rate, res.Accepted, res.Stable)
	fmt.Printf("avg latency %.2f cycles (p95 %.1f, p99 %.1f), worst per-node avg %.2f\n",
		res.AvgLatency, res.P95, res.P99, res.WorstLatency)
	fmt.Printf("avg hops %.2f, measured packets %d\n", res.AvgHops, res.MeasuredPackets)
	if res.LostPackets > 0 {
		fmt.Printf("lost packets %d\n", res.LostPackets)
	}
	printPerClass(res.PerClass)
	printFaultStats(res.Faults)
	return nil
}

// sweepRates lists the offered loads step, 2*step, ... up to and
// including hi. Each rate derives from its index, rounded to 1e-9:
// accumulating step drifts (0.02 x 24 = 0.48000000000000015), which
// dropped the hi point itself.
func sweepRates(step, hi float64) []float64 {
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

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	p := netFlags(fs)
	hi := fs.Float64("hi", 0.5, "highest offered load")
	step := fs.Float64("step", 0.02, "load step")
	fo := faultFlags(fs)
	co := classFlags(fs)
	oo := obsFlags(fs, false)
	fs.BoolVar(&oo.sess.Screen, "screen", false, "analytically screen the sweep: skip predicted deep-saturation simulations (output is bit-identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p.Fault = fo.build()
	if err := co.apply(p); err != nil {
		return err
	}
	if err := oo.sess.Open(); err != nil {
		return err
	}
	defer oo.teardown()
	if err := oo.startProfiling(); err != nil {
		return err
	}
	results, err := core.OpenLoopSweepWith(*p, sweepRates(*step, *hi), core.OpenLoopOpts{})
	if err != nil {
		return err
	}
	if err := oo.stopProfiling(); err != nil {
		return err
	}
	fmt.Printf("config: %s\n", p)
	fmt.Printf("%10s %12s %12s %8s\n", "offered", "avg latency", "accepted", "stable")
	for _, r := range results {
		fmt.Printf("%10.3f %12.2f %12.3f %8v\n", r.Rate, r.AvgLatency, r.Accepted, r.Stable)
	}
	if len(results) > 0 && len(results[0].PerClass) > 0 {
		fmt.Printf("\nper-class avg latency (cycles)\n%10s", "offered")
		for _, cr := range results[0].PerClass {
			fmt.Printf(" %12s", cr.Name)
		}
		fmt.Println()
		for _, r := range results {
			fmt.Printf("%10.3f", r.Rate)
			for _, cr := range r.PerClass {
				fmt.Printf(" %12.2f", cr.AvgLatency)
			}
			fmt.Println()
		}
	}
	return nil
}

func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	p := netFlags(fs)
	b := fs.Int("b", 1000, "batch size per node")
	m := fs.Int("m", 1, "max outstanding requests per node")
	nar := fs.Float64("nar", 0, "network access rate (0 or 1 = baseline)")
	replySpec := fs.String("reply", "", "reply model: fixed:<lat> or prob:<l2>:<mem>:<missrate>")
	kernelStatic := fs.Float64("kstatic", 0, "kernel static traffic fraction")
	kernelPeriod := fs.Int64("kperiod", 0, "kernel timer period in cycles")
	kernelBatch := fs.Int("kbatch", 0, "kernel transactions per timer interrupt")
	fo := faultFlags(fs)
	oo := obsFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p.Fault = fo.build()
	reply, err := parseReply(*replySpec)
	if err != nil {
		return err
	}
	if err := oo.sess.Open(); err != nil {
		return err
	}
	defer oo.teardown()
	if err := oo.startProfiling(); err != nil {
		return err
	}
	h := oo.hooks()
	bp := core.BatchParams{B: *b, M: *m, NAR: *nar, Reply: reply, Hooks: h}
	if *kernelStatic > 0 || *kernelPeriod > 0 {
		bp.Kernel = &closedloop.KernelConfig{
			StaticFraction: *kernelStatic,
			TimerPeriod:    *kernelPeriod,
			TimerBatch:     *kernelBatch,
		}
	}
	res, err := core.Batch(*p, bp)
	if err != nil {
		return err
	}
	if err := oo.writeOutputs(h, p.Topology); err != nil {
		return err
	}
	if err := oo.stopProfiling(); err != nil {
		return err
	}
	fmt.Printf("config: %s  b=%d m=%d nar=%g\n", p, *b, *m, *nar)
	fmt.Printf("runtime T = %d cycles (completed %v)\n", res.Runtime, res.Completed)
	fmt.Printf("achieved throughput theta = %.4f flits/cycle/node\n", res.Throughput)
	fmt.Printf("packets %d (kernel %d), avg packet latency %.2f\n",
		res.TotalPackets, res.KernelPackets, res.AvgPacketLatency)
	if res.FailedTransactions > 0 {
		fmt.Printf("failed transactions %d\n", res.FailedTransactions)
	}
	if res.Stalled {
		fmt.Printf("RUN STALLED (deadlock watchdog):\n%s", res.StallDump)
	}
	printFaultStats(res.Faults)
	return nil
}

func cmdBarrier(args []string) error {
	fs := flag.NewFlagSet("barrier", flag.ExitOnError)
	p := netFlags(fs)
	b := fs.Int("b", 1000, "packets per node per phase")
	phases := fs.Int("phases", 1, "barrier phases")
	fo := faultFlags(fs)
	oo := obsFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p.Fault = fo.build()
	if err := oo.sess.Open(); err != nil {
		return err
	}
	defer oo.teardown()
	if err := oo.startProfiling(); err != nil {
		return err
	}
	res, err := core.Barrier(*p, *b, *phases)
	if err == nil {
		err = oo.stopProfiling()
	}
	if err != nil {
		return err
	}
	fmt.Printf("config: %s  b=%d phases=%d\n", p, *b, *phases)
	fmt.Printf("runtime %d cycles, throughput %.4f flits/cycle/node\n", res.Runtime, res.Throughput)
	for i, pt := range res.PhaseRuntime {
		fmt.Printf("  phase %d: %d cycles\n", i, pt)
	}
	if res.FailedPackets > 0 {
		fmt.Printf("failed packets %d\n", res.FailedPackets)
	}
	printFaultStats(res.Faults)
	return nil
}

func cmdExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ExitOnError)
	bench := fs.String("bench", "blackscholes", "benchmark (blackscholes, lu, canneal, fft, barnes)")
	tr := fs.Int64("tr", 1, "router delay")
	clockStr := fs.String("clock", "3ghz", "core clock (75mhz, 3ghz)")
	timer := fs.Bool("timer", false, "enable timer interrupts")
	ideal := fs.Bool("ideal", false, "use the ideal network")
	seed := fs.Uint64("seed", 7, "random seed")
	oo := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	clock, err := workload.ParseClock(*clockStr)
	if err != nil {
		return fmt.Errorf("%v (want 75mhz or 3ghz)", err)
	}
	if err := oo.startProfiling(); err != nil {
		return err
	}
	res, err := core.Exec(core.Table2Network(*tr), core.ExecParams{
		Benchmark: *bench, Clock: clock, Timer: *timer, Ideal: *ideal, Seed: *seed,
	})
	if err == nil {
		err = oo.stopProfiling()
	}
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s on %s network, tr=%d, clock %s, timer %v\n",
		*bench, map[bool]string{true: "ideal", false: "4x4 mesh"}[*ideal], *tr, clock, *timer)
	fmt.Printf("runtime %d cycles, %d user + %d kernel instructions\n",
		res.Cycles, res.UserInsts, res.KernelInsts)
	fmt.Printf("flits %d (kernel %d, %.1f%%), NAR %.4f (user %.4f, kernel %.4f)\n",
		res.TotalFlits, res.KernelFlits, 100*float64(res.KernelFlits)/float64(res.TotalFlits),
		res.NAR, res.UserNAR, res.KernelNAR)
	fmt.Printf("L1 miss %.3f/%.3f (user/kernel), L2 miss %.3f/%.3f, timer interrupts %d\n",
		res.L1MissRate[0], res.L1MissRate[1], res.L2MissRate[0], res.L2MissRate[1], res.TimerInterrupts)
	return nil
}

func cmdChar(args []string) error {
	fs := flag.NewFlagSet("char", flag.ExitOnError)
	bench := fs.String("bench", "blackscholes", "benchmark")
	clockStr := fs.String("clock", "3ghz", "core clock")
	seed := fs.Uint64("seed", 7, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clock, err := workload.ParseClock(*clockStr)
	if err != nil {
		return fmt.Errorf("%v (want 75mhz or 3ghz)", err)
	}
	m, err := core.Characterize(*bench, clock, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s @ %s\n", m.Name, m.Clock)
	fmt.Printf("ideal cycles %d, total flits %d\n", m.IdealCycles, m.TotalFlits)
	fmt.Printf("NAR %.4f (user %.4f, kernel %.4f)\n", m.NAR, m.UserNAR, m.KernelNAR)
	fmt.Printf("L2 miss %.3f (kernel %.3f)\n", m.L2Miss, m.KernelL2Miss)
	fmt.Printf("static kernel fraction %.3f, timer period %d cycles, timer batch %d\n",
		m.StaticKernelFrac, m.TimerPeriod, m.TimerBatch)
	return nil
}
