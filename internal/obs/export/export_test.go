package export_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"noceval/internal/core"
	"noceval/internal/obs"
	"noceval/internal/obs/export"
)

// scrape GETs one endpoint off the test server.
func scrape(t *testing.T, addr, path string) (string, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// Prometheus text exposition: a line is either a # TYPE comment or
// "metric_name value".
var (
	promType   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge)$`)
	promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]* [-+0-9.eE]+$`)
)

// TestMetricsEndpointSmoke is the CI smoke job (make obs-smoke): it runs a
// real cached sweep with the exporter live, scrapes /metrics, and
// validates both the Prometheus exposition format and the presence of the
// cross-run counters every instrumented subsystem publishes.
func TestMetricsEndpointSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	srv, err := export.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The registry must be installed before the session opens its cache so
	// the cache's instruments attach (mirroring the commands' -serve then
	// -cache order).
	sess := &core.Session{Cache: true, CacheDir: t.TempDir()}
	if err := sess.Open(); err != nil {
		t.Fatal(err)
	}
	defer sess.Close(io.Discard)

	rates := []float64{0.05, 0.1}
	// Both rates are stable with this window, so the sweep reports and
	// caches both; with a 300-cycle window 0.05 reads unstable and the
	// sweep may cancel 0.1, which is then never cached.
	sweep := &core.ExperimentSpec{Kind: "sweep", Network: core.Table2Network(1), Rates: rates,
		Warmup: 200, Measure: 1000, DrainLimit: 3000}
	if _, err := sess.Run(context.Background(), sweep); err != nil {
		t.Fatal(err)
	}

	body, ctype := scrape(t, srv.Addr(), "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q, want text/plain", ctype)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !promType.MatchString(line) && !promSample.MatchString(line) {
			t.Errorf("invalid Prometheus exposition line: %q", line)
		}
	}
	for _, name := range []string{
		"expcache_misses", "expcache_puts", "expcache_bytes_written",
		"engine_cycles_stepped", "engine_runs",
		"par_waves", "par_tasks_done",
		"core_runs_started", "core_runs_finished",
	} {
		if !strings.Contains(body, "\n"+name+" ") && !strings.HasPrefix(body, name+" ") {
			t.Errorf("/metrics missing counter %s:\n%s", name, body)
		}
	}

	// The sweep ran cold against an empty cache: every point is a miss
	// followed by a write.
	if v := reg.Counter("expcache.misses").Value(); v < int64(len(rates)) {
		t.Errorf("expcache.misses = %d, want >= %d", v, len(rates))
	}
	if v := reg.Counter("engine.cycles_stepped").Value(); v == 0 {
		t.Error("engine.cycles_stepped stayed 0 across a sweep")
	}
	if v := reg.Counter("core.runs_finished").Value(); v < int64(len(rates)) {
		t.Errorf("core.runs_finished = %d, want >= %d", v, len(rates))
	}

	// /progress derives sweep state from the same registry.
	progress, _ := scrape(t, srv.Addr(), "/progress")
	var pv struct {
		RunsFinished int64   `json:"runs_finished"`
		RunsInFlight int64   `json:"runs_in_flight"`
		CacheMisses  int64   `json:"cache_misses"`
		Stepped      int64   `json:"cycles_stepped"`
		HitRate      float64 `json:"cache_hit_rate"`
	}
	if err := json.Unmarshal([]byte(progress), &pv); err != nil {
		t.Fatalf("/progress is not JSON: %v\n%s", err, progress)
	}
	if pv.RunsFinished < int64(len(rates)) || pv.RunsInFlight != 0 {
		t.Errorf("/progress = %+v, want >= %d finished runs and none in flight", pv, len(rates))
	}
	if pv.Stepped == 0 || pv.CacheMisses == 0 {
		t.Errorf("/progress missing engine/cache activity: %+v", pv)
	}

	// /metrics.json must be the registry snapshot; /vars a flat object;
	// /healthz alive.
	mj, _ := scrape(t, srv.Addr(), "/metrics.json")
	var points []obs.MetricPoint
	if err := json.Unmarshal([]byte(mj), &points); err != nil {
		t.Errorf("/metrics.json does not parse back: %v", err)
	}
	vars, _ := scrape(t, srv.Addr(), "/vars")
	var vm map[string]float64
	if err := json.Unmarshal([]byte(vars), &vm); err != nil {
		t.Fatalf("/vars is not a flat JSON object: %v", err)
	}
	if _, ok := vm["engine.cycles_stepped"]; !ok {
		t.Error("/vars missing engine.cycles_stepped")
	}
	if hz, _ := scrape(t, srv.Addr(), "/healthz"); strings.TrimSpace(hz) != "ok" {
		t.Errorf("/healthz = %q", hz)
	}

	// Warm rerun: every point must now be served by the cache and counted.
	if _, err := sess.Run(context.Background(), sweep); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("expcache.hits").Value(); v < int64(len(rates)) {
		t.Errorf("expcache.hits = %d after warm rerun, want >= %d", v, len(rates))
	}
}

// TestPromName checks the metric-name sanitizer.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"engine.cycles_stepped": "engine_cycles_stepped",
		"net.flits-injected":    "net_flits_injected",
		"9lives":                "_9lives",
		"ok_name":               "ok_name",
	}
	for in, want := range cases {
		if got := export.PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestNilServer checks the disabled path: a nil server no-ops.
func TestNilServer(t *testing.T) {
	var s *export.Server
	if s.Addr() != "" {
		t.Error("nil Addr() should be empty")
	}
	if err := s.Close(); err != nil {
		t.Error("nil Close() should be nil")
	}
}

// TestServeBadAddr surfaces listen errors instead of panicking.
func TestServeBadAddr(t *testing.T) {
	if _, err := export.Serve("256.256.256.256:99999", obs.NewRegistry()); err == nil {
		t.Fatal("Serve on an invalid address should fail")
	}
}
