package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"noceval/internal/obs"
	"noceval/internal/obs/export"
)

// EndpointMetrics is one HTTP endpoint's instrument bundle in the
// process-wide registry: request count, in-flight gauge, and a latency
// histogram. With no registry installed every field is nil and Begin/End
// are pure nil checks — the zero-alloc guard in obs_guard_test.go pins
// that path.
type EndpointMetrics struct {
	Requests *obs.Counter
	InFlight *obs.Gauge
	Latency  *obs.Histogram
}

// NewEndpointMetrics registers the instruments for one endpoint name
// (e.g. "submit" -> http.submit.requests, http.submit.in_flight,
// http.submit.latency_ms). Nil registry hands back nil instruments.
func NewEndpointMetrics(reg *obs.Registry, endpoint string) *EndpointMetrics {
	return &EndpointMetrics{
		Requests: reg.Counter("http." + endpoint + ".requests"),
		InFlight: reg.Gauge("http." + endpoint + ".in_flight"),
		Latency:  reg.Histogram("http."+endpoint+".latency_ms", 0, 10_000, 64),
	}
}

// Begin records a request's arrival. Nil-safe.
func (m *EndpointMetrics) Begin() {
	if m == nil {
		return
	}
	m.Requests.Inc()
	m.InFlight.Add(1)
}

// End records a request's completion given its start time. Nil-safe.
func (m *EndpointMetrics) End(start time.Time) {
	if m == nil {
		return
	}
	m.InFlight.Add(-1)
	m.Latency.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
}

// instrument wraps a handler with one endpoint's metrics.
func instrument(m *EndpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.Begin()
		defer m.End(start)
		h(w, r)
	}
}

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// SubmitResponse is the POST /jobs payload: the job view plus whether
// this submission coalesced onto an already-in-flight identical spec.
type SubmitResponse struct {
	View
	CoalescedOnto bool `json:"coalescedOnto"`
}

// Handler builds the service's HTTP API:
//
//	POST /jobs               submit a spec -> 202 (new) / 200 (coalesced)
//	GET  /jobs               dashboard: retained jobs + scheduler state
//	GET  /jobs/{id}          one job's state and result
//	POST /jobs/{id}/cancel   cancel (idempotent)
//	GET  /jobs/{id}/events   SSE stream of state transitions
//	                         (the three answer 410 for an aged-out job,
//	                         404 for an id never issued)
//	GET  /metrics, /metrics.json, /vars, /progress
//	                         the registry, rendered by export.Handler
//	GET  /healthz            liveness ("draining" while shutting down)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", instrument(NewEndpointMetrics(s.reg, "submit"), s.handleSubmit))
	mux.HandleFunc("GET /jobs", instrument(NewEndpointMetrics(s.reg, "jobs_list"), s.handleList))
	mux.HandleFunc("GET /jobs/{id}", instrument(NewEndpointMetrics(s.reg, "job_get"), s.handleGet))
	mux.HandleFunc("POST /jobs/{id}/cancel", instrument(NewEndpointMetrics(s.reg, "job_cancel"), s.handleCancel))
	mux.HandleFunc("GET /jobs/{id}/events", instrument(NewEndpointMetrics(s.reg, "job_events"), s.handleEvents))
	metrics := instrument(NewEndpointMetrics(s.reg, "metrics"), export.Handler(s.reg).ServeHTTP)
	for _, path := range []string{"/metrics", "/metrics.json", "/vars", "/progress"} {
		mux.HandleFunc("GET "+path, metrics)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeMissing answers an id the job table does not hold: 410 for a job
// that finished and aged out (see retireLocked), 404 for an id never
// issued.
func (s *Server) writeMissing(w http.ResponseWriter, id string) {
	if s.expired(id) {
		writeError(w, http.StatusGone, "service: job "+id+" expired: finished jobs age out of the server; "+
			"resubmit its spec (served from the experiment cache when nocd runs with -cache)")
		return
	}
	writeError(w, http.StatusNotFound, "service: unknown job "+id)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "service: reading body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("service: spec exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	view, coalesced, err := s.Submit(body)
	if err != nil {
		status := http.StatusInternalServerError
		var se *submitError
		if errors.As(err, &se) {
			status = se.status
		}
		writeError(w, status, err.Error())
		return
	}
	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{View: view, CoalescedOnto: coalesced})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeMissing(w, r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		s.writeMissing(w, r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams a job's state transitions as server-sent events,
// one `event: state` per transition, ending after the terminal state (or
// when the client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeMissing(w, r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "service: streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		view, changed := j.Watch()
		data, err := json.Marshal(view)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
		fl.Flush()
		if Terminal(view.State) {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
