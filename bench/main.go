// Command nocbench is the repository's benchmark: seven workloads over the
// simulator and the experiment service, end-to-end metrics measured with
// tracing off, and a separate traced pass that measures every layer from
// outside. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	nocbench -workload sat_mesh8x8 -seed 1 -seconds 10 -trace 0   one workload; last stdout line is the result JSON
//	nocbench -seed 1 -out a.json                                   every workload, each in its own child process
//	nocbench -trace 1 -out t.json                                  the traced pass: per-layer metrics, span files
//	nocbench -compare a.json b.json                                judge two result files against the bounds
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir is where a run leaves its span files and scratch data, relative
// to the checkout root the benchmark is started from.
const outDir = "bench/out"

//go:embed expected_digests.json
var expectedDigestsJSON []byte

// expectedDigests maps a simulation workload to its result_digest at seed
// 1. A difference is reported as digest_changed, never as a failed
// operation: a deliberate model change is legal, a silent one in a
// performance change is not.
func expectedDigests() map[string]string {
	m := map[string]string{}
	_ = json.Unmarshal(expectedDigestsJSON, &m) // the package test checks the embedded file parses
	return m
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload produced. The driver's
// contract line carries Correct, Attempted, Failed and Metrics only.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds the metrics the driver does not gate (see infoMetrics).
	Info map[string]metric `json:"info,omitempty"`
	// Spread holds the repetitions behind each host-time metric.
	Spread        map[string]spread `json:"spread,omitempty"`
	Reps          int               `json:"reps"`
	ResultDigest  string            `json:"resultDigest,omitempty"`
	DigestChanged bool              `json:"digestChanged"`
	// Noisy is set on a traced run whose calibration spins differ by more
	// than a quarter.
	Noisy    bool     `json:"noisy"`
	Failures []string `json:"failures,omitempty"`
}

func (r *record) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// timedRep is one repetition with its host cost.
type timedRep struct {
	out       repOut
	wall, cpu float64
}

func timeRep(rep repFunc, parent int) timedRep {
	runtime.GC() // every repetition starts from a collected heap
	cpu0, t0 := cpuSeconds(), time.Now()
	out := rep(parent, false)
	return timedRep{out: out, wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
}

// repeatFor runs repetitions until budget has elapsed, at least atLeast,
// each under a "rep" span of root when tr is not nil.
func repeatFor(rep repFunc, budget time.Duration, atLeast int, tr *tracer, root int) []timedRep {
	var reps []timedRep
	for start := time.Now(); len(reps) < atLeast || time.Since(start) < budget; {
		id := tr.begin(root, "rep")
		reps = append(reps, timeRep(rep, id))
		tr.end(id)
	}
	return reps
}

// hostCost summarizes the wall and CPU seconds of the repetitions.
func hostCost(reps []timedRep) (wall, cpu spread) {
	var walls, cpus []float64
	for _, r := range reps {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
	}
	return summarize(walls), summarize(cpus)
}

// judge applies the correctness rules to the timed repetitions: each
// repetition's own failures, and rep-to-rep determinism of the digest.
func (r *record) judge(reps []timedRep) {
	for i, tr := range reps {
		r.Attempted += tr.out.ops
		failed := len(tr.out.fails)
		if failed > tr.out.ops {
			failed = tr.out.ops
		}
		for _, f := range tr.out.fails[:failed] {
			r.failf("rep %d: %s", i, f)
		}
		if tr.out.digest != reps[0].out.digest && failed == 0 {
			r.failf("rep %d: result_digest %s differs from rep 0's %s", i, tr.out.digest, reps[0].out.digest)
		}
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w *workloadDef, e *env, seconds float64) *record {
	r := &record{Workload: w.name, Seed: e.seed, Metrics: map[string]metric{}, Info: map[string]metric{}, Spread: map[string]spread{}}
	// Set up three times and report the median: one set-up is too short
	// to time once.
	const setups = 3
	var setupS []float64
	var rep repFunc
	cleanup := func() {}
	for i := 0; i < setups; i++ {
		cleanup()
		t0 := time.Now()
		var err error
		if rep, cleanup, err = w.setup(e); err != nil {
			r.Attempted++
			r.failf("set-up: %v", err)
			return r
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { cleanup() }()
	reps := repeatFor(rep, time.Duration(seconds*float64(time.Second)), 3, nil, 0)
	r.Reps = len(reps)
	r.judge(reps)
	// Work per repetition is fixed, so the first one stands for all in
	// everything but host time.
	first := reps[0].out
	r.ResultDigest = first.digest
	wall, cpu := hostCost(reps)
	r.Spread["setup_s"] = summarize(setupS)
	r.Spread["wall_s"] = wall
	r.Spread["cpu_s"] = cpu
	e2e := func(name string, v float64) { r.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
	info := func(name string, v float64) { r.Info[name] = metric{v, unitOf(infoMetrics, name)} }
	e2e("setup_s", r.Spread["setup_s"].Median)
	e2e("wall_s", wall.Median)
	e2e("cpu_s", cpu.Median)
	e2e("peak_rss_mb", peakRSSMiB())
	e2e("sim_cycles_per_s", float64(first.simCycles)/wall.Median)
	if first.flitHops > 0 {
		info("flit_hops_per_s", float64(first.flitHops)/wall.Median)
	}
	if first.svc != nil {
		info("jobs_per_s", float64(first.ops)/wall.Median)
		// Each latency percentile is taken per round, then the median
		// across rounds.
		for _, p := range []struct {
			name string
			q    float64
			of   func(*roundStats) []time.Duration
		}{
			{"job_cached_p50_ms", 0.50, func(s *roundStats) []time.Duration { return s.latCached }},
			{"job_cached_p99_ms", 0.99, func(s *roundStats) []time.Duration { return s.latCached }},
			{"job_cold_p50_ms", 0.50, func(s *roundStats) []time.Duration { return s.latCold }},
			{"job_cold_p90_ms", 0.90, func(s *roundStats) []time.Duration { return s.latCold }},
		} {
			var perRound []float64
			for _, tr := range reps {
				perRound = append(perRound, percentileMS(p.of(tr.out.svc), p.q))
			}
			info(p.name, summarize(perRound).Median)
		}
	}
	if r.Attempted > 0 {
		info("ops_failed_share", float64(r.Failed)/float64(r.Attempted))
	}
	if want, ok := expectedDigests()[w.name]; ok && e.seed == 1 && e.scale == 1 && want != r.ResultDigest {
		r.DigestChanged = true
	}
	r.Correct = r.Failed == 0
	return r
}

// runTraced measures the per-layer metrics: the workload's own
// repetitions with and without spans, then every micro-driver. The span
// file goes to traceDir.
func runTraced(w *workloadDef, e *env, seconds float64, traceDir string) *record {
	r := &record{Workload: w.name, Seed: e.seed, Trace: true, Metrics: map[string]metric{}}
	tr := newTracer()
	spin0 := hostSpin()
	e.tr = tr
	root := tr.begin(0, "workload."+w.name)
	rep, cleanup, err := w.setup(e)
	if err != nil {
		r.Attempted++
		r.failf("set-up: %v", err)
		return r
	}
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	e.tr = nil
	plainSpan := tr.begin(root, "reps_untraced")
	plain := repeatFor(rep, quarter, 2, nil, 0)
	tr.end(plainSpan)
	e.tr = tr
	traced := repeatFor(rep, quarter, 2, tr, root)
	cleanup()
	tr.end(root)
	r.judge(append(plain, traced...))
	r.Reps = len(plain) + len(traced)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	r.Attempted++ // the micro-driver pass is one more checked operation
	microOK := true
	microFail := func(format string, args ...any) {
		if microOK {
			microOK = false
			r.Failed++
		}
		r.Failures = append(r.Failures, "micro: "+fmt.Sprintf(format, args...))
	}
	unit := time.Duration(seconds / runSeconds * e.scale * float64(40*time.Millisecond))
	microSpan := tr.begin(0, "micro")
	values, notes := runMicro(e, microSpan, unit, microFail)
	tr.end(microSpan)
	plainWall, _ := hostCost(plain)
	tracedWall, _ := hostCost(traced)
	out := traced[0].out
	values["bench.trace_overhead_ratio"] = tracedWall.Median / plainWall.Median
	values["network.flit_hops_per_s"] = float64(out.flitHops) / tracedWall.Median
	values["engine.stepped_cycles"] = float64(out.eng.Stepped)
	values["engine.skipped_cycles"] = float64(out.eng.Skipped)
	values["engine.skip_ratio"] = out.eng.SkipRatio()
	values["bench.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	values["bench.heap_inuse_mb"] = float64(ms.HeapInuse) / (1 << 20)
	spin1 := hostSpin()
	noise := spin1 / spin0
	if noise < 1 {
		noise = 1 / noise
	}
	values["bench.host_noise_ratio"] = noise
	r.Noisy = noise > 1.25
	for _, d := range perLayer {
		v, ok := values[d.Name]
		if !ok {
			microFail("%s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metric{v, d.Unit}
	}
	rows := tr.selfTimes()
	if path, err := tr.write(traceDir, w.name, rows); err != nil {
		r.failf("writing the span file: %v", err)
	} else {
		fmt.Printf("spans: %s\n", path)
	}
	printSelfTimes(os.Stdout, rows)
	for _, n := range notes {
		fmt.Println(n)
	}
	r.Correct = r.Failed == 0
	return r
}

// print writes the human-readable report and, last, the contract line.
func (r *record) print(defs []metricDef) {
	fmt.Printf("workload %s seed %d trace %v reps %d\n", r.Workload, r.Seed, r.Trace, r.Reps)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-40s %16.6g %s", d.Name, m.Value, m.Unit)
		if s, ok := r.Spread[d.Name]; ok {
			line += fmt.Sprintf("   (n=%d q1 %.4g median %.4g q3 %.4g)", s.N, s.Q1, s.Median, s.Q3)
		}
		fmt.Println(line)
	}
	for _, d := range infoMetrics {
		if m, ok := r.Info[d.Name]; ok {
			fmt.Printf("  %-40s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if r.ResultDigest != "" {
		fmt.Printf("  result_digest %s\n", r.ResultDigest)
	}
	if r.DigestChanged {
		fmt.Printf("  DIGEST_CHANGED: true — simulated results differ from expected_digests.json at seed 1\n")
	}
	if r.Noisy {
		fmt.Printf("  noisy: true — the host's speed drifted more than 25 %% during this run\n")
	}
	fmt.Printf("  ops_attempted %d ops_failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

// resultFile is what -out writes when every workload is run.
type resultFile struct {
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Records []*record `json:"records"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs each workload in its own child process, one after another,
// so peak memory, CPU time and internal/core's process-wide switches are
// one workload's alone.
func runAll(seed uint64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 2
	}
	file := resultFile{Seed: seed, Seconds: seconds, Trace: trace != 0}
	status := 0
	for _, w := range workloads {
		tmp := filepath.Join(outDir, "record-"+w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: workload %s: %v\n", w.name, err)
			status = 1
		}
		var rec record
		data, err := os.ReadFile(tmp)
		if err == nil {
			err = json.Unmarshal(data, &rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: workload %s left no record: %v\n", w.name, err)
			status = 1
			continue
		}
		os.Remove(tmp)
		file.Records = append(file.Records, &rec)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			return 2
		}
	}
	return status
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) in place of the end-to-end one")
	out := flag.String("out", "", "write the full result record(s) to this file")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: nocbench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *workloadName == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	w := workloadByName(*workloadName)
	if w == nil {
		names := make([]string, 0, len(workloads))
		for _, w := range workloads {
			names = append(names, w.name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "nocbench: unknown workload %q (have %v)\n", *workloadName, names)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(2)
	}
	e := &env{seed: *seed, scale: 1, dir: scratch}
	var rec *record
	if *trace != 0 {
		rec = runTraced(w, e, *seconds, outDir)
		rec.print(perLayer)
	} else {
		rec = runUntraced(w, e, *seconds)
		rec.print(endToEnd)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(2)
		}
	}
	os.RemoveAll(scratch)
	if !rec.Correct {
		os.Exit(1)
	}
}
