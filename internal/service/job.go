package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"noceval/internal/core"
)

// Job states. A job is born queued, becomes running when a pool worker
// picks it up, and ends in exactly one of the three terminal states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether a job state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// View is the JSON representation of a job served by the HTTP API. Its
// field set and names are pinned by the golden API-schema tests: changing
// them is an API break and must update the goldens deliberately.
type View struct {
	ID       string `json:"id"`
	SpecHash string `json:"specHash"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	// Coalesced counts the duplicate submissions this job absorbed beyond
	// the first (0 for a job nobody duplicated).
	Coalesced   int64  `json:"coalesced"`
	SubmittedAt string `json:"submittedAt,omitempty"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	WallMS      int64  `json:"wallMs,omitempty"`
	Result      string `json:"result,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Job is one submitted experiment. All state transitions happen under mu
// and bump the changed channel, so pollers and SSE streams observe every
// transition without polling loops.
type Job struct {
	seq  int64 // submission order; id is jobID(seq)
	id   string
	hash string
	kind string
	// spec is what the worker runs. The terminal transition drops it: a
	// finished job keeps only what its View shows.
	spec *core.ExperimentSpec

	// ctx spans the job's whole life; cancel aborts it with a cause
	// whether it is still queued or already inside the engine loop.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every transition
	state     string
	coalesced int64
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    string
	errText   string

	// stopTimer releases the per-job timeout's resources once the run
	// returns (nil when no timeout is configured).
	stopTimer context.CancelFunc
}

// jobID is the id of the seq-th accepted job.
func jobID(seq int64) string { return fmt.Sprintf("job-%06d", seq) }

func newJob(seq int64, hash string, spec *core.ExperimentSpec) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Job{
		seq:       seq,
		id:        jobID(seq),
		hash:      hash,
		kind:      spec.Kind,
		spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		changed:   make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// bump wakes every watcher. Callers hold j.mu.
func (j *Job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// View snapshots the job for the API.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() View {
	v := View{
		ID:          j.id,
		SpecHash:    j.hash,
		Kind:        j.kind,
		State:       j.state,
		Coalesced:   j.coalesced,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		Result:      j.result,
		Error:       j.errText,
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		v.WallMS = j.finished.Sub(j.started).Milliseconds()
	}
	return v
}

// Watch returns the current view and a channel that closes on the next
// state transition — the long-poll/SSE primitive.
func (j *Job) Watch() (View, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(), j.changed
}

// coalesce records one absorbed duplicate submission. Callers hold the
// server mutex (which owns the inflight table); the job mutex still
// guards the counter itself.
func (j *Job) coalesce() {
	j.mu.Lock()
	j.coalesced++
	j.bump()
	j.mu.Unlock()
}

// start transitions queued -> running and returns the spec to run and the
// context the run must observe, with the per-job timeout layered on. ok is
// false when the job was canceled while queued (the worker then skips it
// entirely).
func (j *Job) start(timeout time.Duration) (ctx context.Context, spec *core.ExperimentSpec, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, nil, false
	}
	j.state = StateRunning
	j.started = time.Now()
	ctx = j.ctx
	if timeout > 0 {
		ctx, j.stopTimer = context.WithTimeoutCause(ctx, timeout,
			&timeoutError{d: timeout})
	}
	j.bump()
	return ctx, j.spec, true
}

// finish moves the job to a terminal state. A second call is a no-op, so
// a cancel racing the run's own completion settles on whichever got the
// job mutex first.
func (j *Job) finish(state, result, errText string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if Terminal(j.state) {
		return false
	}
	if j.stopTimer != nil {
		j.stopTimer()
		j.stopTimer = nil
	}
	j.state = state
	j.spec = nil
	j.result = result
	j.errText = errText
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished // canceled before a worker picked it up
	}
	j.bump()
	return true
}

// cancelQueued atomically cancels the job if it has not started yet; it
// returns false when the job is already running or terminal (the caller
// then relies on context cancellation to stop the engine).
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.stopTimer != nil {
		j.stopTimer()
		j.stopTimer = nil
	}
	j.state = StateCanceled
	j.spec = nil
	j.errText = "service: job canceled while queued"
	j.finished = time.Now()
	j.started = j.finished
	j.bump()
	return true
}

// textBytes is the size of the job's result and error text, what the
// finished-job byte limit counts.
func (j *Job) textBytes() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.result) + len(j.errText)
}

// timeoutError is the cancellation cause of an expired per-job timeout.
// It is not context.Canceled, so a timed-out job lands in StateFailed
// rather than StateCanceled.
type timeoutError struct{ d time.Duration }

func (e *timeoutError) Error() string {
	return "service: job timed out after " + e.d.String()
}
