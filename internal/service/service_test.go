package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"noceval/internal/obs"
	"noceval/internal/obs/export"
)

// withObs installs a fresh process-wide registry for one test, so counter
// assertions see only this test's traffic.
func withObs(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })
	return reg
}

// newTestServer builds a Server and serves its API over httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Abort()
	})
	return s, ts
}

// specJSON builds an openloop spec on a mesh4x4 with explicit phase
// lengths: measure controls how long the job simulates, so tests pick
// their own point on the fast/slow axis. Distinct seeds give distinct
// spec hashes.
func specJSON(rate float64, seed uint64, measure int64) string {
	return fmt.Sprintf(`{"kind":"openloop","network":{"Topology":"mesh4x4","VCs":2,"BufDepth":16,"RouterDelay":1,"Routing":"dor","Arb":"rr","Pattern":"uniform","Sizes":"single","Seed":%d},"rate":%g,"warmup":200,"measure":%d,"drainLimit":50000}`,
		seed, rate, measure)
}

// quickSpec finishes in well under a second.
func quickSpec(seed uint64) string { return specJSON(0.1, seed, 2000) }

// slowSpec simulates 20M cycles — far beyond any test's patience, so it
// only ever ends by cancel, timeout, or abort.
func slowSpec(seed uint64) string { return specJSON(0.1, seed, 20_000_000) }

func postSpec(t *testing.T, url, body string) (int, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding submit response %q: %v", data, err)
	}
	return resp.StatusCode, sr
}

func getView(t *testing.T, url, id string) (int, View) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, url, id string, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, v := getView(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if Terminal(v.State) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, v.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches the given (non-terminal) state.
func waitState(t *testing.T, url, id, state string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, v := getView(t, url, id)
		if v.State == state {
			return
		}
		if Terminal(v.State) {
			t.Fatalf("job %s reached terminal %q while waiting for %q (error: %s)", id, v.State, state, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v, want %q", id, v.State, timeout, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	withObs(t)
	_, ts := newTestServer(t, Config{Workers: 2})

	code, sr := postSpec(t, ts.URL, quickSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if sr.ID == "" || sr.CoalescedOnto {
		t.Fatalf("submit response = %+v, want fresh job", sr)
	}
	if sr.Kind != "openloop" || sr.SpecHash == "" {
		t.Fatalf("submit response = %+v, want kind/hash populated", sr)
	}

	v := waitTerminal(t, ts.URL, sr.ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("job ended %q (error %q), want done", v.State, v.Error)
	}
	if !strings.HasPrefix(v.Result, "openloop mesh4x4") {
		t.Fatalf("result = %q, want an openloop report", v.Result)
	}
	if v.StartedAt == "" || v.FinishedAt == "" {
		t.Fatalf("terminal view missing timestamps: %+v", v)
	}

	// Dashboard reflects the finished job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var dash Dashboard
	if err := json.NewDecoder(resp.Body).Decode(&dash); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dash.Jobs) != 1 || dash.Counts[StateDone] != 1 || dash.Draining {
		t.Fatalf("dashboard = %+v, want one done job", dash)
	}

	// Unknown job ids are 404s.
	if code, _ := getView(t, ts.URL, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	reg := withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
		wantStatus int
		wantError  string // "" = any message
	}{
		{"invalid json", "not json", 400, ""},
		{"unknown kind", `{"kind":"warp","rate":0.1}`, 400, ""},
		{"unknown field", `{"kind":"openloop","rate":0.1,"bogus":1}`, 400, ""},
		{"missing rate", `{"kind":"openloop"}`, 400, ""},
		// Each of these used to be a 202 and a job that failed at run time;
		// the last one held its worker for 50M simulated cycles.
		{"exec on 64 nodes", `{"kind":"exec","benchmark":"lu"}`, 400,
			"core: execution-driven runs need a 16-node topology, got 8x8 mesh"},
		{"barrier without b", `{"kind":"barrier","b":0}`, 400,
			"closedloop: barrier batch size B must be >= 1, got 0"},
		{"batch negative m", `{"kind":"batch","b":50,"m":-1}`, 400,
			"closedloop: outstanding limit M must be >= 1, got -1"},
		{"batch negative b", `{"kind":"batch","b":-5,"m":1}`, 400,
			"closedloop: batch size B must be >= 1, got -5"},
		{"sweep with a negative rate", `{"kind":"sweep","rates":[0.1,-0.2]}`, 400,
			"openloop: offered load must be positive, got -0.2"},
		{"barrier negative phases", `{"kind":"barrier","b":10,"phases":-1}`, 400,
			"closedloop: barrier phase count must be >= 0, got -1"},
		// Reply models were not validated at all: these four were 202s whose
		// results were cached, the last one as an immediate-reply run.
		{"reply negative latency", `{"kind":"batch","b":10,"m":1,"reply":{"type":"fixed","latency":-100}}`, 400,
			"closedloop: reply latency -100 outside [0, 50000000] (the run's cycle limit)"},
		{"reply miss rate above one", `{"kind":"batch","b":10,"m":1,"reply":{"type":"probabilistic","l2":20,"memory":300,"missRate":1.5}}`, 400,
			"closedloop: reply miss rate 1.5 outside [0, 1]"},
		{"reply all negative", `{"kind":"batch","b":10,"m":1,"reply":{"type":"probabilistic","l2":-20,"memory":-300,"missRate":-0.5}}`, 400,
			"closedloop: reply L2 latency -20 outside [0, 50000000] (the run's cycle limit)"},
		{"reply latency overflows", `{"kind":"batch","b":10,"m":1,"reply":{"type":"fixed","latency":9223372036854775807}}`, 400,
			"closedloop: reply latency 9223372036854775807 outside [0, 50000000] (the run's cycle limit)"},
		// Was a 202 whose wrong result (a b=50 run "completed" in 49 cycles)
		// was reported as completed and cached.
		{"kernel static fraction overflows", `{"kind":"batch","b":50,"m":2,"kernel":{"StaticFraction":1e300}}`, 400,
			"closedloop: kernel static fraction 1e+300 of batch size 50 is 5e+301 transactions a node, more than 2147483647"},
		// Open-loop phase lengths were not validated at all, and the sample
		// buffer was sized from them: the first was a 202 and a panicking
		// worker, the second a 202 and then "fatal error: out of memory" —
		// one POST took the whole server down — and the last two ran with
		// nonsense phase windows.
		{"negative measure window", `{"kind":"openloop","rate":0.1,"measure":-5}`, 400,
			"openloop: measure must be >= 0 cycles (0 = default), got -5"},
		{"measure window beyond a 32-bit run", `{"kind":"openloop","rate":0.1,"measure":4000000000000}`, 400,
			"openloop: warmup 10000 + measure 4000000000000 + drain limit 100000 exceeds 4294967295 cycles, the longest run whose latencies fit their 32-bit samples"},
		{"negative warmup", `{"kind":"openloop","rate":0.1,"warmup":-20000}`, 400,
			"openloop: warmup must be >= 0 cycles (0 = default), got -20000"},
		{"negative drain limit", `{"kind":"sweep","rates":[0.1],"drainLimit":-1}`, 400,
			"openloop: drain limit must be >= 0 cycles (0 = default), got -1"},
		// Was a 202 and a worker that never finished cycle 0 (an int8 class
		// counter wrapped inside Network.Step, below the engine's Ctx poll),
		// so cancel and drain could not reclaim it.
		{"128 QoS classes", `{"kind":"openloop","rate":0.05,"warmup":100,"measure":300,"drainLimit":3000,"network":{"VCs":128,"ClassArb":"strict","Classes":[` +
			strings.TrimSuffix(strings.Repeat(`{"name":"c","share":0.0078125},`, 128), ",") + `]}}`, 400,
			"router: Classes must be in [0, 127], got 128"},
		// A timeline sampled every cycle of a 200M-cycle exec run would
		// hold 200M samples in the server.
		{"sample interval below the limit", `{"kind":"exec","benchmark":"lu","sampleInterval":1}`, 400,
			"core: sampleInterval 1: want 0 (no timeline) or at least 1000 cycles"},
		{"negative sample interval", `{"kind":"exec","benchmark":"lu","sampleInterval":-5}`, 400,
			"core: sampleInterval -5: want 0 (no timeline) or at least 1000 cycles"},
		{"matrix on an openloop spec", `{"kind":"openloop","rate":0.1,"matrix":true}`, 400,
			"core: openloop specs take no matrix or sampleInterval: they select exec outputs"},
		// Were 202s whose worker sized router buffers and pipes from these
		// inside network.New: a fatal out-of-memory that ended every
		// tenant's jobs with the process.
		{"a billion VCs", `{"kind":"openloop","rate":0.1,"network":{"VCs":1000000000}}`, 400,
			"network: 8x8 mesh with VCs 1000000000, BufDepth 16, Delay 1 needs 1e+05 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"a billion-flit buffer", `{"kind":"openloop","rate":0.1,"network":{"BufDepth":1000000000}}`, 400,
			"network: 8x8 mesh with VCs 2, BufDepth 1000000000, Delay 1 needs 9.54e+03 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"a trillion-cycle router", `{"kind":"openloop","rate":0.1,"network":{"RouterDelay":1000000000000}}`, 400,
			"network: 8x8 mesh with VCs 2, BufDepth 16, Delay 1000000000000 needs 8.58e+06 GiB of router buffers and pipes, over the 1 GiB limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("error body = %+v (decode err %v), want an error message", eb, err)
			}
			if tc.wantError != "" && eb.Error != tc.wantError {
				t.Fatalf("error = %q, want %q", eb.Error, tc.wantError)
			}
		})
	}
	if got := reg.Counter("service.jobs_submitted").Value(); got != 0 {
		t.Fatalf("service.jobs_submitted = %d after only rejected specs, want 0", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	reg := withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	_, sr := postSpec(t, ts.URL, slowSpec(2))
	waitState(t, ts.URL, sr.ID, StateRunning, 10*time.Second)

	resp, err := http.Post(ts.URL+"/jobs/"+sr.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", resp.StatusCode)
	}
	v := waitTerminal(t, ts.URL, sr.ID, 30*time.Second)
	if v.State != StateCanceled {
		t.Fatalf("job ended %q (error %q), want canceled", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "canceled") {
		t.Fatalf("error = %q, want cancellation mentioned", v.Error)
	}
	if got := reg.Counter("service.jobs_canceled").Value(); got != 1 {
		t.Fatalf("jobs_canceled = %d, want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 8})
	// Occupy the single worker, then queue a second job behind it.
	_, blocker := postSpec(t, ts.URL, slowSpec(3))
	waitState(t, ts.URL, blocker.ID, StateRunning, 10*time.Second)
	_, queued := postSpec(t, ts.URL, slowSpec(4))
	if _, v := getView(t, ts.URL, queued.ID); v.State != StateQueued {
		t.Fatalf("second job is %q, want queued behind the single worker", v.State)
	}

	// A queued cancel resolves immediately — no worker ever touches it.
	resp, err := http.Post(ts.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, v := getView(t, ts.URL, queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job after cancel = %q, want canceled", v.State)
	}
	// The blocker is unaffected.
	if _, v := getView(t, ts.URL, blocker.ID); v.State != StateRunning {
		t.Fatalf("blocker = %q, want still running", v.State)
	}
}

func TestJobTimeout(t *testing.T) {
	withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 100 * time.Millisecond})
	_, sr := postSpec(t, ts.URL, slowSpec(5))
	v := waitTerminal(t, ts.URL, sr.ID, 30*time.Second)
	if v.State != StateFailed {
		t.Fatalf("timed-out job ended %q, want failed", v.State)
	}
	if !strings.Contains(v.Error, "timed out after") {
		t.Fatalf("error = %q, want the timeout cause", v.Error)
	}
}

func TestSSEStreamsToTerminalState(t *testing.T) {
	withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	_, sr := postSpec(t, ts.URL, specJSON(0.1, 6, 100_000))

	resp, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var v View
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		states = append(states, v.State)
	}
	// The stream ends server-side after the terminal event, so Scan
	// returning false means the job finished.
	if len(states) == 0 {
		t.Fatal("no SSE events received")
	}
	if last := states[len(states)-1]; last != StateDone {
		t.Fatalf("final streamed state = %q (saw %v), want done", last, states)
	}
}

func TestDrainFinishesAcceptedAndRejectsNew(t *testing.T) {
	withObs(t)
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	var ids []string
	for seed := uint64(10); seed < 13; seed++ {
		_, sr := postSpec(t, ts.URL, quickSpec(seed))
		ids = append(ids, sr.ID)
	}
	s.Drain() // blocks until all three jobs finish

	for _, id := range ids {
		if _, v := getView(t, ts.URL, id); v.State != StateDone {
			t.Fatalf("job %s = %q after drain, want done", id, v.State)
		}
	}
	// New submissions bounce with 503 and healthz reports draining.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(quickSpec(99)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
	}
}

func TestQueueFullRejectsWith503(t *testing.T) {
	reg := withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	_, blocker := postSpec(t, ts.URL, slowSpec(20))
	waitState(t, ts.URL, blocker.ID, StateRunning, 10*time.Second)
	if code, _ := postSpec(t, ts.URL, slowSpec(21)); code != http.StatusAccepted {
		t.Fatalf("queue-slot submit = %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(slowSpec(22)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-queue submit = %d, want 503", resp.StatusCode)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("error = %q, want queue full", eb.Error)
	}
	if got := reg.Counter("service.jobs_rejected").Value(); got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}
}

func TestMetricsEndpointExposesServiceCounters(t *testing.T) {
	withObs(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	_, sr := postSpec(t, ts.URL, quickSpec(30))
	waitTerminal(t, ts.URL, sr.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"service_jobs_submitted 1",
		"service_jobs_done 1",
		"http_submit_requests 1",
		"http_submit_latency_ms_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

// TestMetricsMountedFromExport: nocd has no metrics rendering of its own —
// /metrics and /metrics.json are export.Handler's bodies for the same
// registry. Only the http.metrics.* instruments differ between the two
// fetches, because the service's wrapper counts the scrape itself.
func TestMetricsMountedFromExport(t *testing.T) {
	reg := withObs(t)
	s, ts := newTestServer(t, Config{Workers: 1})
	_, sr := postSpec(t, ts.URL, quickSpec(31))
	waitTerminal(t, ts.URL, sr.ID, 30*time.Second)
	s.Drain() // the pool's own counters settle only once its workers exit
	direct := httptest.NewServer(export.Handler(reg))
	defer direct.Close()

	fetch := func(url string) (string, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}
	scrapeFree := func(body string) string {
		var keep []string
		for _, line := range strings.Split(body, "\n") {
			if !strings.Contains(line, "http_metrics_") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	gotType, got := fetch(ts.URL + "/metrics")
	wantType, want := fetch(direct.URL + "/metrics")
	if gotType != wantType || scrapeFree(got) != scrapeFree(want) {
		t.Errorf("/metrics differs from export.Handler:\n%s %s\n--- want\n%s %s", gotType, got, wantType, want)
	}

	jsonBody := func(url string) []obs.MetricPoint {
		t.Helper()
		_, body := fetch(url)
		var all, keep []obs.MetricPoint
		if err := json.Unmarshal([]byte(body), &all); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		for _, m := range all {
			if !strings.HasPrefix(m.Name, "http.metrics.") {
				keep = append(keep, m)
			}
		}
		return keep
	}
	if got, want := jsonBody(ts.URL+"/metrics.json"), jsonBody(direct.URL+"/metrics.json"); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics.json differs from export.Handler:\n%+v\n--- want\n%+v", got, want)
	}
	for _, path := range []string{"/vars", "/progress"} {
		if _, body := fetch(ts.URL + path); !strings.Contains(body, "{") {
			t.Errorf("%s body %q is not JSON", path, body)
		}
	}
}
