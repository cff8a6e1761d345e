package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noceval/internal/core"
	"noceval/internal/obs/ledger"
)

func TestParseReply(t *testing.T) {
	r, err := parseReply("")
	if err != nil || r != nil {
		t.Errorf("empty flag: %v, %v", r, err)
	}
	r, err = parseReply("fixed:25")
	if err != nil {
		t.Fatal(err)
	}
	if *r != (core.ReplySpec{Type: "fixed", Latency: 25}) {
		t.Errorf("fixed flag parsed to %#v", r)
	}
	r, err = parseReply("prob:20:300:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if *r != (core.ReplySpec{Type: "probabilistic", L2: 20, Memory: 300, MissRate: 0.1}) {
		t.Errorf("prob flag parsed to %#v", r)
	}
	for _, bad := range []string{"fixed", "fixed:x", "prob:1:2", "prob:a:b:c", "magic:1"} {
		if _, err := parseReply(bad); err == nil {
			t.Errorf("bad flag %q accepted", bad)
		}
	}
}

// The sweep subcommand's rates derive from their index (openloop.Rates),
// so the hi point is swept; a flag line with no rate in (0, hi] is an
// error, not the default rates of a rate-less sweep spec.
func TestSweepRates(t *testing.T) {
	cases := []struct {
		step, hi float64
		n        int
		last     float64
	}{
		{0.02, 0.5, 25, 0.5}, // accumulating 0.02 ends at 0.48000000000000015
		{0.1, 0.3, 3, 0.3},
		{0.05, 0.5, 10, 0.5},
		{0.2, 0.5, 2, 0.4},
		{0.5, 0.1, 0, 0},
		{0, 0.5, 0, 0},
	}
	for _, tc := range cases {
		spec, _, err := parse("sweep", []string{"-step", fmt.Sprint(tc.step), "-hi", fmt.Sprint(tc.hi)})
		if tc.n == 0 {
			if err == nil {
				t.Errorf("-step %g -hi %g: rates %v accepted, want an error", tc.step, tc.hi, spec.Rates)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Rates; len(got) != tc.n || got[tc.n-1] != tc.last {
			t.Errorf("-step %g -hi %g: rates %v, want %d rates ending at exactly %g", tc.step, tc.hi, got, tc.n, tc.last)
		}
	}
	if spec, _, err := parse("sweep", nil); err != nil || spec.Rates[2] != 0.06 {
		t.Errorf("third default rate = %v (err %v), want the canonical 0.06", spec.Rates, err)
	}
}

// table2 is core.Table2Network(tr) spelled as spec JSON.
func table2(tr int) string {
	return fmt.Sprintf(`{"Topology":"mesh4x4","VCs":8,"BufDepth":4,"RouterDelay":%d,"Routing":"dor","Arb":"rr","Pattern":"uniform","Sizes":"single","Seed":1}`, tr)
}

// Each subcommand's flag line builds the spec its JSON spelling parses to:
// same hash, so the same cache entries, run keys and nocd coalescing.
func TestFlagsBuildTheJSONSpec(t *testing.T) {
	cases := []struct {
		args []string
		json string
	}{
		{[]string{"openloop", "-rate", "0.2"}, `{"kind":"openloop","rate":0.2}`},
		{[]string{"openloop", "-topo", "torus8x8", "-routing", "val", "-vcs", "4", "-rate", "0.15", "-seed", "3"},
			`{"kind":"openloop","rate":0.15,"network":{"Topology":"torus8x8","Routing":"val","VCs":4,"Seed":3}}`},
		{[]string{"openloop", "-vcs", "4", "-rate", "0.1", "-class", "hi:0.25", "-class", "lo:0.75:transpose", "-class-arb", "classrr"},
			`{"kind":"openloop","rate":0.1,"network":{"VCs":4,"ClassArb":"classrr","Classes":[{"name":"hi","share":0.25},{"name":"lo","share":0.75,"pattern":"transpose"}]}}`},
		{[]string{"openloop", "-rate", "0.1", "-fault-corrupt", "0.001", "-fault-timeout", "500", "-fault-kill", "5@10000"},
			`{"kind":"openloop","rate":0.1,"network":{"Fault":{"CorruptRate":0.001,"Timeout":500,"Kills":[{"Node":5,"At":10000}]}}}`},
		{[]string{"sweep", "-hi", "0.1", "-step", "0.05", "-q", "8"},
			`{"kind":"sweep","rates":[0.05,0.1],"network":{"BufDepth":8}}`},
		{[]string{"batch", "-b", "500", "-m", "4", "-tr", "2", "-nar", "0.3"},
			`{"kind":"batch","b":500,"m":4,"nar":0.3,"network":{"RouterDelay":2}}`},
		{[]string{"batch", "-topo", "mesh4x4", "-b", "300", "-m", "2", "-reply", "prob:20:300:0.1", "-kstatic", "0.2", "-kperiod", "500", "-kbatch", "2"},
			`{"kind":"batch","b":300,"m":2,"network":{"Topology":"mesh4x4"},"reply":{"type":"probabilistic","l2":20,"memory":300,"missRate":0.1},"kernel":{"StaticFraction":0.2,"TimerPeriod":500,"TimerBatch":2}}`},
		{[]string{"batch", "-reply", "fixed:20"}, `{"kind":"batch","b":1000,"m":1,"reply":{"type":"fixed","latency":20}}`},
		{[]string{"barrier", "-b", "200", "-phases", "3", "-pattern", "transpose"},
			`{"kind":"barrier","b":200,"phases":3,"network":{"Pattern":"transpose"}}`},
		{[]string{"exec", "-bench", "lu", "-tr", "2", "-clock", "75mhz", "-timer"},
			`{"kind":"exec","benchmark":"lu","clock":"75mhz","timer":true,"seed":7,"network":` + table2(2) + `}`},
		{[]string{"exec", "-ideal", "-seed", "3"},
			`{"kind":"exec","benchmark":"blackscholes","clock":"3ghz","ideal":true,"seed":3,"network":` + table2(1) + `}`},
		{[]string{"char", "-bench", "fft", "-clock", "75MHz"},
			`{"kind":"characterize","benchmark":"fft","clock":"75mhz","seed":7}`},
	}
	hash := func(s *core.ExperimentSpec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			got, _, err := parse(tc.args[0], tc.args[1:])
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.ParseSpec([]byte(tc.json))
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if hash(got) != hash(want) {
				t.Errorf("flags built %+v\nJSON parsed to %+v", got, want)
			}
		})
	}
}

// Every subcommand runs end to end at tiny scale on the one run path and
// prints the report of its kind; the batch report carries its runtime
// where bench/'s service_mix reads it.
func TestSubcommandsRun(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(config, []byte(`{"kind":"barrier","b":10,"network":{"Topology":"mesh4x4"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := filepath.Join(dir, "runs.jsonl")
	cases := []struct {
		args []string
		head string // the report's first word: the kind
	}{
		{[]string{"openloop", "-topo", "mesh4x4", "-rate", "0.05", "-ledger", runs}, "openloop"},
		{[]string{"sweep", "-topo", "mesh4x4", "-hi", "0.1", "-step", "0.05"}, "sweep"},
		{[]string{"batch", "-topo", "mesh4x4", "-b", "50", "-m", "2", "-reply", "prob:20:300:0.1",
			"-kstatic", "0.2", "-kperiod", "500", "-kbatch", "2", "-metrics", "-obs-out", dir}, "batch"},
		{[]string{"barrier", "-topo", "mesh4x4", "-b", "20", "-phases", "2"}, "barrier"},
		{[]string{"exec", "-bench", "blackscholes", "-tr", "2", "-clock", "75mhz", "-timer"}, "exec"},
		{[]string{"char", "-bench", "blackscholes"}, "characterize"},
		{[]string{"run", "-config", config}, "barrier"},
	}
	for _, tc := range cases {
		t.Run(tc.args[0], func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, tc.args[0], tc.args[1:]); err != nil {
				t.Fatal(err)
			}
			report := out.String()
			if !strings.HasPrefix(report, tc.head+" ") {
				t.Errorf("report does not open with %q:\n%s", tc.head, report)
			}
			if tc.args[0] == "batch" {
				var runtime int64
				if i := strings.Index(report, "runtime "); i >= 0 {
					fmt.Sscanf(report[i:], "runtime %d", &runtime)
				}
				if runtime <= 0 {
					t.Errorf("batch report holds no positive runtime after its first \"runtime \":\n%s", report)
				}
				if _, err := os.Stat(filepath.Join(dir, "util_heatmap.txt")); err != nil {
					t.Errorf("-metrics wrote no heatmap: %v", err)
				}
			}
		})
	}
	recs, _, err := ledger.ReadFile(runs)
	if err != nil || len(recs) != 1 || recs[0].Kind != "openloop" {
		t.Errorf("-ledger wrote %+v (err %v), want the openloop run's record", recs, err)
	}
}
