package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"noceval/internal/core"
	"noceval/internal/obs"
	"noceval/internal/topology"
)

// obsOpts gathers the run-level observability and profiling flags of a
// subcommand.
type obsOpts struct {
	metrics     bool
	trace       bool
	sampleEvery int64
	progress    bool
	out         string
	cpuprofile  string
	memprofile  string
	// sess holds the cross-run flags (-ledger, -serve, and sweep's
	// -screen); its notices go to stderr, keeping stdout for the result.
	sess core.Session

	cpuFile *os.File
}

// profileFlags registers the profiling pair, -cpuprofile and -memprofile:
// exec's observability flags.
func (o *obsOpts) profileFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
}

// sessionFlags registers the profiling pair, -ledger and -serve: the
// observability flags of a kind that takes no hooks (sweep, barrier).
func (o *obsOpts) sessionFlags(fs *flag.FlagSet) {
	o.profileFlags(fs)
	fs.StringVar(&o.sess.Ledger, "ledger", "", "append one JSONL record per experiment run to this file")
	fs.StringVar(&o.sess.Serve, "serve", "", "serve live metrics on this address (e.g. :9500) during the run")
}

// observeFlags registers every observability flag: sessionFlags plus the
// ones that set the spec's hooks (openloop, batch).
func (o *obsOpts) observeFlags(fs *flag.FlagSet) {
	o.sessionFlags(fs)
	fs.BoolVar(&o.metrics, "metrics", false, "collect metrics + per-router telemetry and write them under -obs-out")
	fs.BoolVar(&o.trace, "trace", false, "record flit-lifecycle events and write a Chrome trace under -obs-out")
	fs.Int64Var(&o.sampleEvery, "sample-every", 100, "telemetry sampling period in cycles")
	fs.StringVar(&o.out, "obs-out", "results/telemetry", "output directory for metrics/telemetry/trace files")
	fs.BoolVar(&o.progress, "progress", false, "print a heartbeat (cycles/sec, ETA) to stderr during the run")
}

// teardown writes the session summary to w and closes the session opened
// with sess.Open.
func (o *obsOpts) teardown(w io.Writer) {
	if err := o.sess.Close(w); err != nil {
		fmt.Fprintln(os.Stderr, "noceval:", err)
	}
}

// hooks builds the spec's hooks from the flags. The observer is nil —
// the zero-overhead disabled path — unless -metrics or -trace was given,
// so a kind without those flags gets no hooks.
func (o *obsOpts) hooks() core.Hooks {
	h := core.Hooks{
		Obs: obs.NewObserver(obs.Options{Metrics: o.metrics, Trace: o.trace, SampleEvery: o.sampleEvery}),
	}
	if o.progress {
		h.Progress = obs.NewProgress(os.Stderr, time.Second)
	}
	return h
}

// startProfiling begins the CPU profile when requested. Call
// stopProfiling before exiting.
func (o *obsOpts) startProfiling() error {
	if o.cpuprofile == "" {
		return nil
	}
	f, err := os.Create(o.cpuprofile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	o.cpuFile = f
	return nil
}

// stopProfiling finishes the CPU profile and writes the heap profile.
func (o *obsOpts) stopProfiling() error {
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := o.cpuFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", o.cpuprofile)
		o.cpuFile = nil
	}
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", o.memprofile)
	}
	return nil
}

// writeOutputs exports everything the observer collected: metrics
// (JSON+CSV), router/node telemetry time series (CSV+JSON), a per-router
// utilization heatmap shaped like the topology, and the Chrome trace.
func (o *obsOpts) writeOutputs(h core.Hooks, topoName string) error {
	ob := h.Obs
	if ob == nil {
		return nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		path := filepath.Join(o.out, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return nil
	}
	if ob.Registry != nil {
		js, err := ob.Registry.JSON()
		if err != nil {
			return err
		}
		if err := write("metrics.json", js); err != nil {
			return err
		}
		if err := write("metrics.csv", []byte(ob.Registry.CSV())); err != nil {
			return err
		}
	}
	if ob.Telemetry != nil {
		if err := write("telemetry_routers.csv", []byte(ob.Telemetry.RouterCSV())); err != nil {
			return err
		}
		if len(ob.Telemetry.Nodes) > 0 {
			if err := write("telemetry_nodes.csv", []byte(ob.Telemetry.NodeCSV())); err != nil {
				return err
			}
		}
		js, err := ob.Telemetry.JSON()
		if err != nil {
			return err
		}
		if err := write("telemetry.json", js); err != nil {
			return err
		}
		topo, err := topology.ByName(topoName)
		if err != nil {
			return err
		}
		hm := core.UtilizationHeatmap(ob.Telemetry, topo)
		heat := fmt.Sprintf("# per-router mean crossbar utilization (flits/cycle), max %.4g\n%s",
			hm.MaxValue(), hm.String())
		if err := write("util_heatmap.txt", []byte(heat)); err != nil {
			return err
		}
		if err := write("util_heatmap.csv", []byte(hm.CSV())); err != nil {
			return err
		}
	}
	if ob.Tracer != nil {
		js, err := ob.Tracer.ChromeJSON()
		if err != nil {
			return err
		}
		if err := write("trace.json", js); err != nil {
			return err
		}
		if d := ob.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace ring overflowed: %d oldest events dropped (raise the ring size or shorten the run)\n", d)
		}
	}
	return nil
}
