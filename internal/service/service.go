// Package service is the multi-tenant experiment server behind cmd/nocd:
// clients POST declarative experiment specs (the same JSON
// core.ExperimentSpec that `noceval run -config` consumes) and poll or
// stream the resulting jobs. The server composes the framework's existing
// cross-cutting layers rather than reimplementing them:
//
//   - identical in-flight specs coalesce onto one simulation — a
//     single-flight table keyed by the spec's content hash (the same
//     SHA-256 family the experiment cache and run ledger use), so a burst
//     of duplicate submissions costs one engine run;
//   - jobs run in the server's core.Session: repeated specs are served
//     from its content-addressed experiment cache when it has one, making
//     warm repeats disk-read cheap;
//   - concurrency is bounded by a par.Pool job scheduler with a bounded
//     queue: saturation degrades into fast HTTP 503s, never unbounded
//     memory;
//   - so is what finished jobs leave behind: the server keeps the newest
//     512 of them whose result and error text fit in 16 MiB, and ages
//     the oldest out first (the newest is always kept). An aged-out id
//     answers 410 Gone; its spec, resubmitted, is served from the
//     experiment cache when the session has one. Queued and running jobs
//     are never aged out: Queue and Workers bound them already;
//   - every job runs under a context threaded into the engine's cycle
//     loop, so per-job timeouts and client cancellations stop multi-minute
//     sweeps within ~1k simulated cycles;
//   - the obs registry, run ledger and Prometheus surface observe the
//     whole thing (per-endpoint HTTP metrics, job counters, /metrics).
//
// Graceful shutdown is two-stage: Drain stops intake and lets accepted
// jobs finish (SIGTERM), Abort cancels everything first (second signal).
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noceval/internal/core"
	"noceval/internal/obs"
	"noceval/internal/par"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds how many jobs simulate concurrently (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// Queue bounds how many accepted jobs may wait for a worker; further
	// submissions are rejected with 503 (default 64).
	Queue int
	// JobTimeout, when positive, fails any job still running after this
	// long (the context cause names the timeout).
	JobTimeout time.Duration
	// MaxBodyBytes bounds a submission body (default 1 MiB).
	MaxBodyBytes int64
	// Session is the session every job runs in; nil is core's default
	// session, the one core.EnableCache opens a cache in.
	Session *core.Session
}

// Retention of finished jobs (see Server.retireLocked). Deliberately not
// configurable: they bound memory, not behaviour. A sweep's result text
// grows by one line per rate, bounded only by the request body limit, so
// a count alone would not bound bytes.
const (
	maxFinished      = 512
	maxFinishedBytes = 16 << 20
)

// Server owns the job table and scheduler. Create with New, expose with
// Handler, shut down with Drain or Abort.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	pool *par.Pool

	mu sync.Mutex
	// jobs holds every queued and running job and the retained finished
	// ones, by job id.
	jobs     map[string]*Job
	inflight map[string]*Job // by spec hash; single-flight table
	// finished lists the retained finished jobs, oldest first, and
	// finishedBytes sums their result and error text.
	finished      []*Job
	finishedBytes int

	seq      int64
	draining atomic.Bool

	cSubmitted *obs.Counter
	cCoalesced *obs.Counter
	cRejected  *obs.Counter
	cDone      *obs.Counter
	cFailed    *obs.Counter
	cCanceled  *obs.Counter
}

// New builds a server on the process-wide obs registry (nil registry =
// all instruments disabled, zero overhead).
func New(cfg Config) *Server {
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	reg := obs.Default()
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		cSubmitted: reg.Counter("service.jobs_submitted"),
		cCoalesced: reg.Counter("service.jobs_coalesced"),
		cRejected:  reg.Counter("service.jobs_rejected"),
		cDone:      reg.Counter("service.jobs_done"),
		cFailed:    reg.Counter("service.jobs_failed"),
		cCanceled:  reg.Counter("service.jobs_canceled"),
	}
	s.pool = par.NewPool(cfg.Workers, cfg.Queue, nil)
	return s
}

// submitError carries the HTTP status a failed submission maps to.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

// Submit parses, validates, and schedules one experiment spec. The
// returned bool reports coalescing: true means an identical spec was
// already in flight and the returned view is that existing job. On error
// the *submitError (via errors.As) carries the HTTP status.
func (s *Server) Submit(data []byte) (View, bool, error) {
	spec, err := core.ParseSpec(data)
	if err != nil {
		return View{}, false, &submitError{status: 400, msg: err.Error()}
	}
	if err := spec.Validate(); err != nil {
		return View{}, false, &submitError{status: 400, msg: err.Error()}
	}
	hash, err := spec.Hash()
	if err != nil {
		return View{}, false, &submitError{status: 500, msg: fmt.Sprintf("service: hashing spec: %v", err)}
	}
	if s.draining.Load() {
		return View{}, false, &submitError{status: 503, msg: "service: draining, not accepting jobs"}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.inflight[hash]; j != nil {
		j.coalesce()
		s.cCoalesced.Inc()
		return j.View(), true, nil
	}
	s.seq++
	j := newJob(s.seq, hash, spec)
	// Insert before scheduling and keep s.mu across TrySubmit (it never
	// blocks): a worker that finishes the job instantly then blocks in
	// release until the tables are consistent, and a refused submission
	// can roll the insertion back before anyone observed it. Rolling seq
	// back too keeps every id up to seq an accepted job's (see expired).
	s.jobs[j.id] = j
	s.inflight[hash] = j
	if !s.pool.TrySubmit(func() { s.run(j) }) {
		delete(s.jobs, j.id)
		delete(s.inflight, hash)
		s.seq--
		s.cRejected.Inc()
		return View{}, false, &submitError{status: 503, msg: "service: job queue full"}
	}
	s.cSubmitted.Inc()
	return j.View(), false, nil
}

// run executes one job on a pool worker.
func (s *Server) run(j *Job) {
	defer func() {
		if v := recover(); v != nil {
			s.settle(j, "", fmt.Errorf("service: job panicked: %v", v))
		}
	}()
	ctx, spec, ok := j.start(s.cfg.JobTimeout)
	if !ok {
		// Canceled while queued; cancelQueued already finished and retired
		// it, only the single-flight entry may remain to clean up.
		s.release(j, false)
		return
	}
	out, err := s.cfg.Session.Run(ctx, spec)
	s.settle(j, out, err)
}

// settle moves a finished run into its terminal state and releases the
// single-flight entry.
func (s *Server) settle(j *Job, out string, err error) {
	var ended bool
	switch {
	case err == nil:
		if ended = j.finish(StateDone, out, ""); ended {
			s.cDone.Inc()
		}
	case errors.Is(err, context.Canceled):
		if ended = j.finish(StateCanceled, "", err.Error()); ended {
			s.cCanceled.Inc()
		}
	default:
		if ended = j.finish(StateFailed, "", err.Error()); ended {
			s.cFailed.Inc()
		}
	}
	s.release(j, ended)
}

// release removes the job's single-flight entry so later identical specs
// start a fresh job (served from the experiment cache when enabled).
// ended is true only for the caller whose transition ended the job (finish
// or cancelQueued returned true): release runs twice for a job canceled
// while queued, and the job must join the finished list once.
func (s *Server) release(j *Job, ended bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	if ended {
		s.retireLocked(j)
	}
}

// retireLocked appends a just-ended job to the finished list, then ages
// the oldest finished jobs out of the table while more than maxFinished
// are kept or their text exceeds maxFinishedBytes. The newest stays
// whatever its size, so its submitter can read it. Callers hold s.mu.
func (s *Server) retireLocked(j *Job) {
	s.finished = append(s.finished, j)
	s.finishedBytes += j.textBytes()
	for len(s.finished) > 1 && (len(s.finished) > maxFinished || s.finishedBytes > maxFinishedBytes) {
		old := s.finished[0]
		s.finished[0] = nil // the backing array must not keep it alive
		s.finished = s.finished[1:]
		s.finishedBytes -= old.textBytes()
		delete(s.jobs, old.id)
	}
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// expired reports whether id names a job this server accepted and has
// since aged out of its table. Ids are issued in sequence and a rejected
// submission takes its id back, so every well-formed id up to seq was a
// job.
func (s *Server) expired(id string) bool {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return false
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || seq < 1 || jobID(seq) != id {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, kept := s.jobs[id]
	return !kept && seq <= s.seq
}

// Cancel aborts a job: a queued job finishes immediately, a running one
// is stopped through its context (the engine loop notices within ~1k
// cycles). Canceling a terminal job is a no-op. ok is false when the id
// is unknown or aged out.
func (s *Server) Cancel(id string) (View, bool) {
	j, ok := s.Job(id)
	if !ok {
		return View{}, false
	}
	s.cancel(j)
	return j.View(), true
}

func (s *Server) cancel(j *Job) {
	if j.cancelQueued() {
		s.cCanceled.Inc()
		s.release(j, true)
	} else {
		j.cancel(context.Canceled)
	}
}

// Dashboard is the GET /jobs payload.
type Dashboard struct {
	Jobs       []View         `json:"jobs"`
	QueueDepth int            `json:"queueDepth"`
	Draining   bool           `json:"draining"`
	Counts     map[string]int `json:"counts"`
}

// jobsInOrder copies the job table in submission order.
func (s *Server) jobsInOrder() []*Job {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	return jobs
}

// Snapshot builds the dashboard view: every job the server holds (queued,
// running and the retained finished ones) in submission order plus
// scheduler state.
func (s *Server) Snapshot() Dashboard {
	jobs := s.jobsInOrder()
	d := Dashboard{
		Jobs:       make([]View, 0, len(jobs)),
		QueueDepth: s.pool.QueueDepth(),
		Draining:   s.draining.Load(),
		Counts:     make(map[string]int),
	}
	for _, j := range jobs {
		v := j.View()
		d.Counts[v.State]++
		d.Jobs = append(d.Jobs, v)
	}
	return d
}

// Drain stops intake (submissions get 503) and blocks until every
// accepted job — queued and running — has reached a terminal state. The
// SIGTERM path.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.pool.Close()
}

// Abort cancels every non-terminal job, then drains. The
// second-signal/hard-shutdown path; still bounded only by the engine's
// cancellation latency.
func (s *Server) Abort() {
	s.draining.Store(true)
	for _, j := range s.jobsInOrder() {
		s.cancel(j)
	}
	s.pool.Close()
}
