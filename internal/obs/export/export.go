// Package export is the live metrics endpoint of the evaluation
// framework: an opt-in HTTP server that renders an obs.Registry — almost
// always the process-wide default registry the cross-run subsystems
// publish into — as Prometheus text format, as expvar-style JSON, and as
// a small progress summary for watching a sweep converge from another
// terminal.
//
// The server is opt-in (`-serve :9500` on cmd/figures and the cmd/noceval
// subcommands, wired by core.Session) and fully inert when
// disabled: nothing in this package runs unless Serve or Handler is
// called, and the instrumented subsystems publish through nil instruments
// (pure nil checks) until a default registry is installed.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition (counters, gauges,
//	               histograms as _count/_sum/_min/_max)
//	/metrics.json  the registry snapshot as a JSON array (obs.Registry.JSON)
//	/vars          expvar-style flat JSON object {metric: value}
//	/progress      run/cache/engine progress summary with uptime
//	/healthz       liveness probe
package export

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"noceval/internal/obs"
)

// Server is one live metrics endpoint. A nil *Server is a no-op on every
// method, so callers can hold the result of a disabled flag without
// branching.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for reg on addr (host:port; ":0" picks a
// free port — read it back from Addr). The server runs on its own
// goroutine until Close.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Handler builds the endpoint set listed in the package comment over reg.
// It is the one HTTP rendering of a registry: Serve listens with it, and
// the experiment service mounts it for its own /metrics. Uptime counts
// from this call.
func Handler(reg *obs.Registry) http.Handler {
	h := &handler{reg: reg, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/metrics.json", h.handleMetricsJSON)
	mux.HandleFunc("/vars", h.handleVars)
	mux.HandleFunc("/progress", h.handleProgress)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handler is the state behind Handler's endpoints.
type handler struct {
	reg   *obs.Registry
	start time.Time
}

// Addr returns the listener's address (useful with ":0"), "" for a nil
// server.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. A nil server is a no-op.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// PromName sanitizes a registry metric name into a valid Prometheus
// metric name: dots and any other illegal runes become underscores, and a
// leading digit is prefixed.
func PromName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// PromText renders a registry snapshot in the Prometheus text exposition
// format. Histograms are flattened to _count/_sum/_min/_max gauges (the
// registry keeps means, not quantile sketches).
func PromText(reg *obs.Registry) string {
	var b strings.Builder
	for _, m := range reg.Snapshot() {
		name := PromName(m.Name)
		switch m.Kind {
		case "counter":
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %g\n", name, name, m.Value)
		case "gauge":
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, m.Value)
		case "histogram":
			fmt.Fprintf(&b, "# TYPE %s_count counter\n%s_count %d\n", name, name, m.Count)
			fmt.Fprintf(&b, "# TYPE %s_sum gauge\n%s_sum %g\n", name, name, m.Value*float64(m.Count))
			fmt.Fprintf(&b, "# TYPE %s_min gauge\n%s_min %g\n", name, name, m.Min)
			fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %g\n", name, name, m.Max)
		}
	}
	return b.String()
}

func (h *handler) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, PromText(h.reg))
}

func (h *handler) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	data, err := h.reg.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleVars serves the snapshot as an expvar-style flat object; the
// histogram summary fields get dotted suffixes.
func (h *handler) handleVars(w http.ResponseWriter, _ *http.Request) {
	vars := make(map[string]float64)
	for _, m := range h.reg.Snapshot() {
		switch m.Kind {
		case "histogram":
			vars[m.Name+".mean"] = m.Value
			vars[m.Name+".count"] = float64(m.Count)
			vars[m.Name+".min"] = m.Min
			vars[m.Name+".max"] = m.Max
		default:
			vars[m.Name] = m.Value
		}
	}
	vars["uptime_seconds"] = time.Since(h.start).Seconds()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(vars)
}

// progressView is the /progress payload: the subset of the registry that
// answers "how far along is this sweep" plus derived rates.
type progressView struct {
	UptimeSec     float64 `json:"uptime_sec"`
	RunsStarted   int64   `json:"runs_started"`
	RunsFinished  int64   `json:"runs_finished"`
	RunsInFlight  int64   `json:"runs_in_flight"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	CyclesStepped int64   `json:"cycles_stepped"`
	CyclesSkipped int64   `json:"cycles_fastforwarded"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	ParWaves      int64   `json:"par_waves"`
	ParTasks      int64   `json:"par_tasks"`
}

func (h *handler) handleProgress(w http.ResponseWriter, _ *http.Request) {
	get := func(name string) int64 {
		// Counter is get-or-create, so probing a name that no subsystem
		// has published yet just materializes a zero counter.
		return h.reg.Counter(name).Value()
	}
	v := progressView{
		UptimeSec:     time.Since(h.start).Seconds(),
		RunsStarted:   get("core.runs_started"),
		RunsFinished:  get("core.runs_finished"),
		CacheHits:     get("expcache.hits"),
		CacheMisses:   get("expcache.misses"),
		CyclesStepped: get("engine.cycles_stepped"),
		CyclesSkipped: get("engine.cycles_fastforwarded"),
		ParWaves:      get("par.waves"),
		ParTasks:      get("par.tasks_done"),
	}
	v.RunsInFlight = v.RunsStarted - v.RunsFinished
	if total := v.CacheHits + v.CacheMisses; total > 0 {
		v.CacheHitRate = float64(v.CacheHits) / float64(total)
	}
	if v.UptimeSec > 0 {
		v.CyclesPerSec = float64(v.CyclesStepped) / v.UptimeSec
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
