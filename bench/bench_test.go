package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"noceval/internal/openloop"
)

// tinyEnv shrinks every workload far enough that the whole package runs
// in seconds; the numbers mean nothing, only the plumbing is checked.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 1, scale: 0.02, dir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json; DisallowUnknownFields makes the
// decode fail on any key the driver's contract does not list.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", f.Command)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", f.RunSeconds, runSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (2..8 allowed)", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (1..16 allowed)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		unique("metric", m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (1..128 allowed)", n, len(perLayer))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, m := range f.PerLayer {
		unique("metric", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end target written down", m.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), infoMetrics...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
	}
	for name := range expectedDigests() {
		if workloadByName(name) == nil {
			t.Errorf("expected_digests.json names unknown workload %q", name)
		}
	}
	if len(expectedDigests()) != 6 {
		t.Errorf("expected_digests.json holds %d digests, want one per simulation workload (6)", len(expectedDigests()))
	}
}

func TestGenOpsIsSeeded(t *testing.T) {
	a, _ := json.Marshal(genOps(7, svcOpsRound))
	b, _ := json.Marshal(genOps(7, svcOpsRound))
	c, _ := json.Marshal(genOps(8, svcOpsRound))
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different op lists")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same op list")
	}
	counts := map[string]int{}
	for _, o := range genOps(7, svcOpsRound) {
		counts[o.Kind]++
	}
	if counts[opCold] != 144 || counts[opBurst] != 48 || counts[opCached] != 1008 {
		t.Errorf("op shares = %v, want 1008 cached / 144 cold / 48 burst", counts)
	}
	if !bytes.Equal(batchSpec(specSeed(7, 1, 5), 10), batchSpec(specSeed(7, 1, 5), 10)) {
		t.Error("same spec seed gave different spec bytes")
	}
	if bytes.Equal(batchSpec(specSeed(7, 1, 5), 10), batchSpec(specSeed(7, 2, 5), 10)) {
		t.Error("a later round reuses a cold spec")
	}
}

// TestPerturbedResultFailsTheCheck proves the correctness layer fires: a
// result that differs in one simulated quantity changes the digest, and a
// repetition whose digest differs is a failed operation.
func TestPerturbedResultFailsTheCheck(t *testing.T) {
	res := openloop.Result{Rate: 0.4, Stable: true, AvgLatency: 24.2, PerNodeAvg: []float64{1, 2, 3}, EndCycle: 32079}
	want, err := digestOf(res)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := digestOf(res); again != want {
		t.Fatal("digest of the same result differs")
	}
	res.PerNodeAvg[1] += 1e-9
	got, _ := digestOf(res)
	if got == want {
		t.Fatal("perturbed result has the same digest")
	}
	r := &record{}
	r.judge([]timedRep{{out: repOut{ops: 1, digest: want}}, {out: repOut{ops: 1, digest: got}}, {out: repOut{ops: 1, digest: want}}})
	if r.Attempted != 3 || r.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", r.Attempted, r.Failed)
	}
	r = &record{}
	r.judge([]timedRep{{out: repOut{ops: 5, fails: []string{"a", "b"}}}})
	if r.Attempted != 5 || r.Failed != 2 {
		t.Errorf("attempted %d failed %d, want 5 and 2", r.Attempted, r.Failed)
	}
}

func TestEveryWorkloadAtTinyScale(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r := runUntraced(w, tinyEnv(t), 0)
			if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
				t.Fatalf("correct %v attempted %d failed %d: %v", r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(r.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := r.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v): every end-to-end metric must be positive", d.Name, m, ok)
				}
			}
			for name := range r.Info {
				if unitOf(infoMetrics, name) == "" {
					t.Errorf("info metric %s is not declared", name)
				}
			}
			if w.name == "service_mix" {
				for _, name := range []string{"jobs_per_s", "job_cached_p50_ms", "job_cached_p99_ms", "job_cold_p50_ms", "job_cold_p90_ms"} {
					if r.Info[name].Value <= 0 {
						t.Errorf("%s not reported", name)
					}
				}
			} else if r.ResultDigest == "" {
				t.Error("no result_digest")
			}
		})
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	r := runTraced(workloadByName("idle_batch_tail"), tinyEnv(t), 0, dir)
	if !r.Correct {
		t.Fatalf("traced run failed: %v", r.Failures)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			t.Errorf("%s not emitted", d.Name)
		}
	}
	if r.Metrics["engine.skip_ratio"].Value < 0.5 {
		t.Errorf("engine.skip_ratio = %v on the idle batch tail", r.Metrics["engine.skip_ratio"].Value)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-idle_batch_tail.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span    `json:"spans"`
		Self  []selfRow `json:"self"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, want := range []string{"workload.idle_batch_tail", "rep", "closedloop.RunBatch", "network.New", "service.job.cached", "service.queued"} {
		if !names[want] {
			t.Errorf("no %q span", want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "rep", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "run", StartNS: 10, EndNS: 70},
		{ID: 3, Parent: 1, Name: "build", StartNS: 70, EndNS: 90},
	}
	got := map[string]float64{}
	for _, r := range tr.selfTimes() {
		got[r.Name] = r.SelfMS * 1e6
	}
	if got["rep"] != 20 || got["run"] != 60 || got["build"] != 20 {
		t.Errorf("self times = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower"}
	higher := metricDef{Name: "sim_cycles_per_s", Better: "higher"}
	tight := spread{N: 8, Q1: 0.99, Median: 1, Q3: 1.01}
	wide := spread{N: 8, Q1: 0.9, Median: 1, Q3: 1.1}
	for _, c := range []struct {
		d      metricDef
		a, b   float64
		sa, sb spread
		want   string
	}{
		{lower, 1, 1.05, tight, tight, verdictOK},
		{lower, 1, 0.5, tight, tight, verdictOK},
		{lower, 1, 1.2, tight, tight, verdictRegressed},
		{lower, 1, 1.2, tight, wide, verdictUnresolved},
		{higher, 100, 95, tight, tight, verdictOK},
		{higher, 100, 80, tight, tight, verdictRegressed},
		{higher, 100, 80, wide, tight, verdictUnresolved},
	} {
		if got := verdict(c.d, 0.10, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
	mk := func(wall float64, digest string) *resultFile {
		r := &record{Workload: "sat_mesh8x8", Correct: true, Attempted: 3, ResultDigest: digest,
			Metrics: map[string]metric{}, Spread: map[string]spread{"wall_s": tight}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		r.Metrics["wall_s"] = metric{Value: wall, Unit: "s"}
		return &resultFile{Seed: 1, Records: []*record{r}}
	}
	var out bytes.Buffer
	if st := compareResults(&out, mk(1, "d"), mk(1.02, "d")); st != 0 {
		t.Errorf("within bounds: status %d\n%s", st, out.String())
	}
	if st := compareResults(&out, mk(1, "d"), mk(1.5, "d")); st != 1 {
		t.Errorf("50 %% slower: status %d", st)
	}
	if st := compareResults(&out, mk(1, "d"), mk(1, "e")); st != 1 {
		t.Errorf("different digests at one seed: status %d", st)
	}
}
