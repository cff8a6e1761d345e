package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/obs"
	"noceval/internal/workload"
)

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"kind":"batch","b":50,"m":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Network.Topology != "mesh8x8" || spec.Network.VCs != 2 {
		t.Errorf("baseline defaults not applied: %+v", spec.Network)
	}
	if spec.B != 50 || spec.M != 2 {
		t.Errorf("fields lost: %+v", spec)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"kind":"batch","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReplySpecBuild(t *testing.T) {
	cases := []struct {
		spec ReplySpec
		want string
	}{
		{ReplySpec{Type: "immediate"}, "immediate"},
		{ReplySpec{Type: "fixed", Latency: 20}, "fixed20"},
		{ReplySpec{Type: "probabilistic", L2: 20, Memory: 300, MissRate: 0.1}, "prob"},
	}
	for _, tc := range cases {
		m, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(m.Name(), tc.want) {
			t.Errorf("built %q, want prefix %q", m.Name(), tc.want)
		}
	}
	if _, err := (&ReplySpec{Type: "quantum"}).Build(); err == nil {
		t.Error("unknown reply type accepted")
	}
	var nilSpec *ReplySpec
	if m, err := nilSpec.Build(); err != nil || m != nil {
		t.Error("nil spec should build nil model")
	}
}

func TestSpecRunBatch(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"kind": "batch",
		"network": {"Topology":"mesh4x4","VCs":2,"BufDepth":8,"RouterDelay":1,"Routing":"dor","Seed":3},
		"b": 50, "m": 2,
		"reply": {"type":"fixed","latency":10}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	report, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "runtime") || !strings.Contains(report, "throughput") {
		t.Errorf("report missing metrics: %q", report)
	}
}

// The batch report names the b and m the run used, not the zero spellings
// of the defaults.
func TestSpecRunBatchReportsEffectiveDefaults(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"kind":"batch","network":{"topology":"mesh4x4"}}`))
	if err != nil {
		t.Fatal(err)
	}
	report, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, " b=1000 m=1\n") {
		t.Errorf("report = %q, want the effective b=1000 m=1", report)
	}
	explicit := *spec
	explicit.B, explicit.M = 1000, 1
	want, err := explicit.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report != want {
		t.Errorf("defaulted report %q differs from the explicit one %q", report, want)
	}
}

func TestSpecRunOpenLoopAndErrors(t *testing.T) {
	spec := &ExperimentSpec{Kind: "openloop", Network: Baseline(), Rate: 0.1}
	report, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "avg latency") {
		t.Errorf("report: %q", report)
	}
	if _, err := (&ExperimentSpec{Kind: "openloop", Network: Baseline()}).RunContext(context.Background()); err == nil {
		t.Error("zero-rate openloop accepted")
	}
	if _, err := (&ExperimentSpec{Kind: "teleport", Network: Baseline()}).RunContext(context.Background()); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (&ExperimentSpec{Kind: "exec", Network: Baseline(), Clock: "9ghz"}).RunContext(context.Background()); err == nil {
		t.Error("unknown clock accepted")
	}
}

// Hooks observe openloop and batch runs only: on any other kind Validate
// (and so RunContext) fails and names the kind, instead of running it
// unobserved.
func TestValidateRejectsHooksOnUnobservedKinds(t *testing.T) {
	hooks := Hooks{Obs: obs.NewObserver(obs.Options{Metrics: true})}
	cases := []struct {
		spec ExperimentSpec
		want string // "" = observable
	}{
		{ExperimentSpec{Kind: "openloop", Rate: 0.1}, ""},
		{ExperimentSpec{Kind: "batch"}, ""},
		{ExperimentSpec{Kind: "sweep", Rates: []float64{0.1}},
			"core: sweep specs cannot be observed: hooks attach to openloop and batch runs only"},
		{ExperimentSpec{Kind: "barrier", B: 10},
			"core: barrier specs cannot be observed: hooks attach to openloop and batch runs only"},
		{ExperimentSpec{Kind: "exec", Benchmark: "lu", Ideal: true},
			"core: exec specs cannot be observed: hooks attach to openloop and batch runs only"},
		{ExperimentSpec{Kind: "characterize", Benchmark: "lu"},
			"core: characterize specs cannot be observed: hooks attach to openloop and batch runs only"},
	}
	for _, tc := range cases {
		tc.spec.Network = Baseline()
		if err := tc.spec.Validate(); err != nil {
			t.Fatalf("%s without hooks: %v", tc.spec.Kind, err)
		}
		tc.spec.Hooks = hooks
		got := ""
		if err := tc.spec.Validate(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s with hooks: Validate = %q, want %q", tc.spec.Kind, got, tc.want)
		}
	}
}

// A sweep spec without rates sweeps exactly 0.05, 0.1, ..., 0.5: each
// rate derived from its index, not accumulated (0.15000000000000002, ...).
func TestSweepSpecDefaultRates(t *testing.T) {
	spec := &ExperimentSpec{Kind: "sweep", Network: Baseline(), Warmup: 100, Measure: 300, DrainLimit: 3000}
	spec.Network.Topology = "mesh4x4"
	res, err := runSpec(context.Background(), *spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
	var got []float64
	for _, r := range res.Sweep {
		got = append(got, r.Rate)
	}
	if !slices.Equal(got, want) {
		t.Errorf("default sweep rates = %v, want exactly %v", got, want)
	}
}

// Every committed example spec parses and validates, and its file name
// starts with its kind (make examples runs each through noceval run).
func TestExampleSpecsValidate(t *testing.T) {
	files, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs found (err %v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if name := filepath.Base(f); !strings.HasPrefix(name, spec.Kind) {
			t.Errorf("%s holds a %s spec: its name should start with the kind", name, spec.Kind)
		}
	}
}

func TestSpecKernelConfigRoundTrip(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"kind":"batch","b":40,"m":1,
		"network": {"Topology":"mesh4x4","VCs":2,"BufDepth":8,"RouterDelay":1,"Routing":"dor","Seed":3},
		"kernel": {"StaticFraction":0.2,"TimerPeriod":500,"TimerBatch":1,"KernelNAR":0.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := closedloop.KernelConfig{StaticFraction: 0.2, TimerPeriod: 500, TimerBatch: 1, KernelNAR: 0.5}
	if *spec.Kernel != want {
		t.Errorf("kernel config = %+v, want %+v", spec.Kernel, want)
	}
	report, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "kernel") {
		t.Errorf("report missing kernel packets: %q", report)
	}
}

// TestSpecErrorMessages pins the exact error text a bad spec produces
// through the ParseSpec -> Validate path — the same two calls the
// experiment service makes at submission time, so these strings are
// precisely what nocd's HTTP 400 bodies surface to clients. A wording
// change here is an API change; update deliberately.
// The texts three network sizes that New cannot allocate fail with, on
// the 64-node baseline.
const (
	hostileVCs      = "network: 8x8 mesh with VCs 1000000000, BufDepth 16, Delay 1 needs 1e+05 GiB of router buffers and pipes, over the 1 GiB limit"
	hostileBufDepth = "network: 8x8 mesh with VCs 2, BufDepth 1000000000, Delay 1 needs 9.54e+03 GiB of router buffers and pipes, over the 1 GiB limit"
	hostileDelay    = "network: 8x8 mesh with VCs 2, BufDepth 16, Delay 1000000000000 needs 8.58e+06 GiB of router buffers and pipes, over the 1 GiB limit"
)

func TestSpecErrorMessages(t *testing.T) {
	// check mirrors service.Submit: parse errors win, then validation.
	check := func(body string) string {
		spec, err := ParseSpec([]byte(body))
		if err != nil {
			return err.Error()
		}
		if err := spec.Validate(); err != nil {
			return err.Error()
		}
		return ""
	}
	cases := []struct {
		name string
		body string
		want string
	}{
		{"truncated json", `{`,
			"core: bad experiment spec: unexpected EOF"},
		{"unknown field", `{"kind":"openloop","rete":0.1}`,
			`core: bad experiment spec: json: unknown field "rete"`},
		{"wrong field type", `{"kind":5}`,
			"core: bad experiment spec: json: cannot unmarshal number into Go struct field ExperimentSpec.kind of type string"},
		{"unknown kind", `{"kind":"warp"}`,
			`core: unknown experiment kind "warp"`},
		{"openloop without rate", `{"kind":"openloop"}`,
			"core: openloop spec needs a positive rate"},
		{"unknown clock", `{"kind":"exec","clock":"9thz"}`,
			`core: unknown clock "9thz"`},
		{"unknown benchmark", `{"kind":"exec","benchmark":"quake"}`,
			`workload: unknown benchmark "quake"`},
		{"unknown topology", `{"kind":"openloop","rate":0.1,"network":{"Topology":"hypercube"}}`,
			`topology: unknown topology "hypercube"`},
		{"unknown pattern", `{"kind":"openloop","rate":0.1,"network":{"Pattern":"blizzard"}}`,
			`traffic: unknown pattern "blizzard"`},
		{"unknown routing", `{"kind":"openloop","rate":0.1,"network":{"Routing":"chaos"}}`,
			`routing: unknown algorithm "chaos"`},
		{"unknown arbitration", `{"kind":"openloop","rate":0.1,"network":{"Arb":"lottery"}}`,
			`core: unknown arbitration "lottery"`},
		{"unknown size mix", `{"kind":"openloop","rate":0.1,"network":{"Sizes":"jumbo"}}`,
			`core: unknown packet size mix "jumbo"`},
		{"unknown reply model", `{"kind":"barrier","reply":{"type":"psychic"}}`,
			`core: unknown reply model "psychic"`},
		// Passed Validate before; the run then sized its sample buffer from
		// the window and took the whole process down with "fatal error: out
		// of memory", which no recover catches. Checked here and by the
		// service test only: nothing may get as far as running it.
		{"measure window beyond a 32-bit run", `{"kind":"openloop","rate":0.1,"measure":4000000000000}`,
			"openloop: warmup 10000 + measure 4000000000000 + drain limit 100000 exceeds 4294967295 cycles, the longest run whose latencies fit their 32-bit samples"},
		{"negative measure window", `{"kind":"openloop","rate":0.1,"measure":-5}`,
			"openloop: measure must be >= 0 cycles (0 = default), got -5"},
		{"kernel static fraction overflows", `{"kind":"batch","b":50,"m":2,"kernel":{"StaticFraction":1e300}}`,
			"closedloop: kernel static fraction 1e+300 of batch size 50 is 5e+301 transactions a node, more than 2147483647"},
		// Passed Validate before; network.New then sized its buffers and
		// pipes from these and ended the process out of memory. Checked by
		// validation only here, for the same reason as the row above.
		{"a billion VCs", `{"kind":"openloop","rate":0.1,"network":{"VCs":1000000000}}`,
			hostileVCs},
		{"a billion-flit buffer", `{"kind":"openloop","rate":0.1,"network":{"BufDepth":1000000000}}`,
			hostileBufDepth},
		{"a trillion-cycle router", `{"kind":"openloop","rate":0.1,"network":{"RouterDelay":1000000000000}}`,
			hostileDelay},
		// The exec outputs a spec selects: Fig 13's traffic matrix and Fig
		// 21's timeline. An interval of 1 would keep a sample a cycle.
		{"matrix on a batch spec", `{"kind":"batch","matrix":true}`,
			"core: batch specs take no matrix or sampleInterval: they select exec outputs"},
		{"sample interval on a characterize spec", `{"kind":"characterize","benchmark":"lu","sampleInterval":1000}`,
			"core: characterize specs take no matrix or sampleInterval: they select exec outputs"},
		{"negative sample interval", `{"kind":"exec","benchmark":"lu","sampleInterval":-1000}`,
			"core: sampleInterval -1000: want 0 (no timeline) or at least 1000 cycles"},
		{"sample interval below the limit", `{"kind":"exec","benchmark":"lu","sampleInterval":1}`,
			"core: sampleInterval 1: want 0 (no timeline) or at least 1000 cycles"},
		{"exec outputs have no error", `{"kind":"exec","benchmark":"lu","clock":"75mhz","matrix":true,"sampleInterval":1000,"network":{"Topology":"mesh4x4"}}`,
			""},
		{"valid spec has no error", `{"kind":"openloop","rate":0.1}`,
			""},
		{"explicit phases have no error", `{"kind":"openloop","rate":0.1,"warmup":1000,"measure":3000}`,
			""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := check(tc.body); got != tc.want {
				t.Errorf("error = %q\n      want %q", got, tc.want)
			}
		})
	}
}

// TestValidateAgreesWithRun holds Validate to its contract: it fails iff
// RunContext would fail before simulating, with the same text. The run
// side gets a cancelled context, so a spec that is runnable stops at the
// engine's first poll with the context's error instead of simulating.
// qosSpecBody is an open-loop spec with n equal-share strict-priority
// classes over n VCs.
func qosSpecBody(n int) string {
	classes := make([]string, n)
	for i := range classes {
		classes[i] = fmt.Sprintf(`{"name":"c%d","share":%g}`, i, 1/float64(n))
	}
	return fmt.Sprintf(`{"kind":"openloop","rate":0.05,"warmup":100,"measure":300,"drainLimit":3000,"network":{"VCs":%d,"ClassArb":"strict","Classes":[%s]}}`,
		n, strings.Join(classes, ","))
}

func TestValidateAgreesWithRun(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // "" = runnable
	}{
		// ParseSpec fills the 64-node baseline; the CMP model has 16 tiles.
		{"exec on 64 nodes", `{"kind":"exec","benchmark":"lu"}`,
			"core: execution-driven runs need a 16-node topology, got 8x8 mesh"},
		{"barrier without b", `{"kind":"barrier","b":0}`,
			"closedloop: barrier batch size B must be >= 1, got 0"},
		{"batch negative m", `{"kind":"batch","b":50,"m":-1}`,
			"closedloop: outstanding limit M must be >= 1, got -1"},
		{"batch negative b", `{"kind":"batch","b":-5,"m":1}`,
			"closedloop: batch size B must be >= 1, got -5"},
		{"sweep with a negative rate", `{"kind":"sweep","rates":[0.1,-0.2]}`,
			"openloop: offered load must be positive, got -0.2"},
		// Ran until MaxCycles before: the driver waits for phase == Phases.
		{"barrier negative phases", `{"kind":"barrier","b":10,"phases":-1}`,
			"closedloop: barrier phase count must be >= 0, got -1"},
		// All four validated, ran and were cached before; the last one
		// overflowed "now + latency" and ran as an immediate reply.
		{"reply negative latency", `{"kind":"batch","b":10,"m":1,"reply":{"type":"fixed","latency":-100}}`,
			"closedloop: reply latency -100 outside [0, 50000000] (the run's cycle limit)"},
		{"reply miss rate above one", `{"kind":"batch","b":10,"m":1,"reply":{"type":"probabilistic","l2":20,"memory":300,"missRate":1.5}}`,
			"closedloop: reply miss rate 1.5 outside [0, 1]"},
		{"reply all negative", `{"kind":"batch","b":10,"m":1,"reply":{"type":"probabilistic","l2":-20,"memory":-300,"missRate":-0.5}}`,
			"closedloop: reply L2 latency -20 outside [0, 50000000] (the run's cycle limit)"},
		{"reply latency overflows", `{"kind":"batch","b":10,"m":1,"reply":{"type":"fixed","latency":9223372036854775807}}`,
			"closedloop: reply latency 9223372036854775807 outside [0, 50000000] (the run's cycle limit)"},
		// Validated, ran and was cached before, as a run that "completed" in
		// 49 cycles with 256 packets (6 400 are due): the per-node kernel
		// target overflowed int and every node finished on its first reply.
		{"kernel static fraction overflows", `{"kind":"batch","b":50,"m":2,"kernel":{"StaticFraction":1e300}}`,
			"closedloop: kernel static fraction 1e+300 of batch size 50 is 5e+301 transactions a node, more than 2147483647"},
		{"kernel negative static fraction", `{"kind":"batch","b":50,"m":2,"kernel":{"StaticFraction":-0.5}}`,
			"closedloop: kernel static fraction must be >= 0, got -0.5"},
		{"kernel negative timer batch", `{"kind":"batch","b":50,"m":2,"kernel":{"TimerPeriod":500,"TimerBatch":-3}}`,
			"closedloop: kernel timer batch -3 outside [0, 2147483647]"},
		{"batch with a kernel model", `{"kind":"batch","b":50,"m":2,"kernel":{"StaticFraction":0.1,"TimerPeriod":500,"TimerBatch":2}}`, ""},

		// Validated and ran before, and never finished cycle 0: a VC's QoS
		// class is an int8 and vaOrder's class loop wrapped at 127.
		// All four validated before. The negative windows panicked the
		// worker ("makeslice: cap out of range": the sample buffer was sized
		// from the square root of a negative count; inside a sweep it
		// surfaced as "par: parallel task 0 panicked"), the other two ran
		// with phase windows that mean nothing.
		{"openloop negative measure", `{"kind":"openloop","rate":0.1,"measure":-5}`,
			"openloop: measure must be >= 0 cycles (0 = default), got -5"},
		{"sweep negative measure", `{"kind":"sweep","rates":[0.1],"measure":-5}`,
			"openloop: measure must be >= 0 cycles (0 = default), got -5"},
		{"openloop negative warmup", `{"kind":"openloop","rate":0.1,"warmup":-20000}`,
			"openloop: warmup must be >= 0 cycles (0 = default), got -20000"},
		{"openloop negative drain limit", `{"kind":"openloop","rate":0.1,"drainLimit":-1}`,
			"openloop: drain limit must be >= 0 cycles (0 = default), got -1"},
		{"openloop explicit phases", `{"kind":"openloop","rate":0.1,"warmup":1000,"measure":3000}`, ""},

		// Validated before, then ran out of memory inside network.New,
		// taking the process down; now the run path's Build says so first.
		{"a billion VCs", `{"kind":"batch","b":10,"m":1,"network":{"VCs":1000000000}}`, hostileVCs},
		{"a billion-flit buffer", `{"kind":"sweep","rates":[0.1],"network":{"BufDepth":1000000000}}`, hostileBufDepth},
		{"a trillion-cycle router", `{"kind":"barrier","b":10,"network":{"RouterDelay":1000000000000}}`, hostileDelay},

		// Validated and ran before as the single-pass allocator: a second
		// pass re-nominated the VCs that lost the first and matched nothing.
		{"two switch-allocation passes", `{"kind":"openloop","rate":0.1,"network":{"SAIterations":2}}`,
			"core: SAIterations must be 0 or 1 (switch allocation is single-pass), got 2"},
		{"one switch-allocation pass", `{"kind":"batch","b":10,"m":1,"network":{"SAIterations":1}}`, ""},

		{"128 QoS classes", qosSpecBody(128), "router: Classes must be in [0, 127], got 128"},
		{"127 QoS classes", qosSpecBody(127), ""},

		{"openloop", `{"kind":"openloop","rate":0.1}`, ""},
		{"sweep", `{"kind":"sweep","rates":[0.1,0.2]}`, ""},
		{"batch", `{"kind":"batch","b":50,"m":2}`, ""},
		{"batch defaults", `{"kind":"batch"}`, ""}, // zero b and m take Batch's defaults
		{"batch with a reply model", `{"kind":"batch","b":10,"m":1,"reply":{"type":"probabilistic","l2":20,"memory":300,"missRate":0.1}}`, ""},
		{"barrier", `{"kind":"barrier","b":10}`, ""},
		{"exec", `{"kind":"exec","benchmark":"lu","network":{"Topology":"mesh4x4"}}`, ""},
		{"exec ideal", `{"kind":"exec","benchmark":"lu","ideal":true}`, ""}, // no network under the ideal fabric
		{"characterize", `{"kind":"characterize","benchmark":"lu"}`, ""},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			if err := spec.Validate(); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("Validate = %q, want %q", got, tc.want)
			}
			_, runErr := spec.RunContext(ctx)
			if tc.want == "" {
				if !errors.Is(runErr, context.Canceled) {
					t.Errorf("RunContext = %v, want it to get as far as the cancelled context", runErr)
				}
			} else if runErr == nil || runErr.Error() != tc.want {
				t.Errorf("RunContext = %v, want %q", runErr, tc.want)
			}
		})
	}
}

// The spec hash is the service's coalescing key and must address the
// result, not the server: the shard count — explicit in the body or
// inherited from NOCEVAL_SHARDS through ParseSpec's Baseline — never
// changes a simulated number, so it must not change the hash.
func TestSpecHashIgnoresShards(t *testing.T) {
	const body = `{"kind":"batch","b":50,"m":2}`
	// Recorded before Hash normalized the network: shard-free specs keep
	// their address.
	const want = "ba4a5647a79ad32f77e127c9c9aa1df291351cb22b1aab58e4e20f8595e1a61a"
	hash := func(body string) string {
		t.Helper()
		spec, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		h, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	t.Setenv("NOCEVAL_SHARDS", "")
	if got := hash(body); got != want {
		t.Errorf("shard-free hash = %s, want %s", got, want)
	}
	sharded := `{"kind":"batch","b":50,"m":2,"network":{"Topology":"mesh8x8","VCs":2,"BufDepth":16,"RouterDelay":1,"Routing":"dor","Arb":"rr","Pattern":"uniform","Sizes":"single","Seed":1,"Shards":2}}`
	if got := hash(sharded); got != want {
		t.Errorf("Shards:2 hash = %s, want the shard-free %s", got, want)
	}
	t.Setenv("NOCEVAL_SHARDS", "2")
	if got := hash(body); got != want {
		t.Errorf("hash under NOCEVAL_SHARDS=2 = %s, want %s", got, want)
	}
	// Hash normalizes a copy: the spec still runs at the requested count.
	spec, _ := ParseSpec([]byte(body))
	if _, err := spec.Hash(); err != nil || spec.Network.Shards != 2 {
		t.Errorf("Hash changed the spec: Shards = %d (err %v), want 2", spec.Network.Shards, err)
	}
}

// An exec spec's matrix and sampleInterval reach the run: the result
// equals Exec's with CollectMatrix and SampleInterval, under one run key.
func TestExecSpecOutputs(t *testing.T) {
	read := withLedger(t)
	spec := ExperimentSpec{Kind: "exec", Network: Table2Network(1), Benchmark: "blackscholes",
		Clock: workload.Clock75MHz.SpecName(), Matrix: true, SampleInterval: 1000, Seed: 3}
	got, err := runSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Exec(Table2Network(1), ExecParams{Benchmark: "blackscholes", CollectMatrix: true, SampleInterval: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exec.Matrix == nil || got.Exec.AppMatrix == nil || len(got.Exec.Timeline) == 0 {
		t.Fatal("the spec's run collected no matrix or no timeline")
	}
	if !reflect.DeepEqual(got.Exec, want) {
		t.Error("the spec's run differs from Exec's")
	}
	if recs := read(); len(recs) != 2 || recs[0].Spec != recs[1].Spec {
		t.Errorf("ledger records %+v, want two runs under one key", recs)
	}
}
