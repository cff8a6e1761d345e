package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"noceval/internal/core"
)

// awaitJob blocks until the job with this id is terminal.
func awaitJob(t *testing.T, s *Server, id string) View {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s is not in the table", id)
	}
	for {
		v, changed := j.Watch()
		if Terminal(v.State) {
			return v
		}
		<-changed
	}
}

// finishOne submits spec and waits for the job it created to end. A
// submission that coalesced onto the previous job (ended, its
// single-flight entry not yet released) created none and is repeated.
func finishOne(t *testing.T, s *Server, spec []byte) View {
	t.Helper()
	for {
		v, coalesced, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v = awaitJob(t, s, v.ID); !coalesced {
			if v.State != StateDone {
				t.Fatalf("job %s ended %q: %s", v.ID, v.State, v.Error)
			}
			return v
		}
	}
}

// withCache opens a session with an experiment cache for one test, so a
// repeated spec is an instant job on a server that runs in it.
func withCache(t *testing.T) *core.Session {
	t.Helper()
	sess := &core.Session{Cache: true, CacheDir: t.TempDir()}
	if err := sess.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close(io.Discard) })
	return sess
}

// addFinished puts a job that ended with this result into s's table as a
// worker leaves one, without simulating anything: Submit's insertion, then
// finish and release.
func addFinished(t *testing.T, s *Server, result string) string {
	t.Helper()
	s.mu.Lock()
	s.seq++
	j := newJob(s.seq, fmt.Sprintf("synthetic-%d", s.seq), &core.ExperimentSpec{Kind: "openloop"})
	s.jobs[j.id] = j
	s.mu.Unlock()
	if !j.finish(StateDone, result, "") {
		t.Fatalf("job %s was already terminal", j.id)
	}
	s.release(j, true)
	return j.id
}

func snapshotIDs(s *Server) []string {
	var ids []string
	for _, v := range s.Snapshot().Jobs {
		ids = append(ids, v.ID)
	}
	return ids
}

// TestRetentionKeepsNewestFinished: past maxFinished finished jobs the
// oldest age out, and the dashboard lists the newest in submission order.
func TestRetentionKeepsNewestFinished(t *testing.T) {
	withObs(t)
	s := New(Config{Workers: 1, Session: withCache(t)})
	t.Cleanup(s.Abort)
	spec := []byte(quickSpec(40))
	var ids []string
	for i := 0; i < maxFinished+16; i++ {
		ids = append(ids, finishOne(t, s, spec).ID)
	}
	// The last job is terminal before its worker retires it; Drain waits
	// for the worker, so the table below is the settled one.
	s.Drain()
	want := ids[len(ids)-maxFinished:]
	if got := snapshotIDs(s); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dashboard holds %d jobs %s … %s, want the newest %d, %s … %s",
			len(got), got[0], got[len(got)-1], len(want), want[0], want[len(want)-1])
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatalf("oldest job %s is still in the table", ids[0])
	}
}

// TestRetentionByteLimit: large results age jobs out before the count
// limit is reached, and the newest job stays even when it alone is over
// the byte limit.
func TestRetentionByteLimit(t *testing.T) {
	withObs(t)
	s := New(Config{Workers: 1})
	t.Cleanup(s.Abort)
	const per = maxFinishedBytes / 64
	var ids []string
	for i := 0; i < 80; i++ {
		ids = append(ids, addFinished(t, s, strings.Repeat("x", per)))
	}
	if got, want := strings.Join(snapshotIDs(s), ","), strings.Join(ids[16:], ","); got != want {
		t.Fatalf("kept %d jobs, want the newest 64 (%d bytes of results each, %d in all)", len(snapshotIDs(s)), per, maxFinishedBytes)
	}
	huge := addFinished(t, s, strings.Repeat("x", maxFinishedBytes+1))
	if got := snapshotIDs(s); len(got) != 1 || got[0] != huge {
		t.Fatalf("after one result over the byte limit, kept %v, want only %s", got, huge)
	}
	if s.finishedBytes != maxFinishedBytes+1 {
		t.Fatalf("finishedBytes = %d, want %d", s.finishedBytes, maxFinishedBytes+1)
	}
}

// TestRetentionSparesQueuedAndRunning: only finished jobs age out.
func TestRetentionSparesQueuedAndRunning(t *testing.T) {
	withObs(t)
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 8})
	_, running := postSpec(t, ts.URL, slowSpec(41))
	waitState(t, ts.URL, running.ID, StateRunning, 10*time.Second)
	_, queued := postSpec(t, ts.URL, slowSpec(42))
	for i := 0; i < maxFinished+8; i++ {
		addFinished(t, s, "done")
	}
	d := s.Snapshot()
	if len(d.Jobs) != maxFinished+2 || d.Counts[StateRunning] != 1 || d.Counts[StateQueued] != 1 {
		t.Fatalf("dashboard holds %d jobs %v, want %d finished + 1 running + 1 queued", len(d.Jobs), d.Counts, maxFinished)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if code, v := getView(t, ts.URL, id); code != http.StatusOK || Terminal(v.State) {
			t.Fatalf("GET %s = %d %q, want 200 and not terminal", id, code, v.State)
		}
	}
}

// TestEvictedIDAnswers410: an aged-out id is 410 Gone on every per-job
// endpoint, with text that says what to do; an id never issued keeps its
// 404 and its text.
func TestEvictedIDAnswers410(t *testing.T) {
	withObs(t)
	s, ts := newTestServer(t, Config{Workers: 1})
	first := addFinished(t, s, "done")
	for i := 0; i < maxFinished; i++ {
		addFinished(t, s, "done")
	}
	if _, ok := s.Job(first); ok {
		t.Fatalf("%s is still in the table", first)
	}
	want := "service: job " + first + " expired: finished jobs age out of the server; resubmit its spec (served from the experiment cache when nocd runs with -cache)"
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/" + first},
		{http.MethodGet, "/jobs/" + first + "/events"},
		{http.MethodPost, "/jobs/" + first + "/cancel"},
	} {
		code, body := do(t, req.method, ts.URL+req.path, "")
		var eb errorBody
		json.Unmarshal(body, &eb)
		if code != http.StatusGone || eb.Error != want {
			t.Errorf("%s %s = %d %q, want 410 %q", req.method, req.path, code, eb.Error, want)
		}
	}
	if code, _ := getView(t, ts.URL, jobID(2)); code != http.StatusOK {
		t.Errorf("GET %s = %d, want 200 (still retained)", jobID(2), code)
	}
	for _, id := range []string{"job-999999", jobID(maxFinished + 2), "job-1", "job-000000", "bogus"} {
		code, body := do(t, http.MethodGet, ts.URL+"/jobs/"+id, "")
		var eb errorBody
		json.Unmarshal(body, &eb)
		if code != http.StatusNotFound || eb.Error != "service: unknown job "+id {
			t.Errorf("GET /jobs/%s = %d %q, want 404 %q", id, code, eb.Error, "service: unknown job "+id)
		}
	}
}

// TestQueuedCancelRetiredOnce: release runs twice for a job canceled while
// queued (Cancel, then the worker that dequeues it); the job joins the
// finished list once.
func TestQueuedCancelRetiredOnce(t *testing.T) {
	withObs(t)
	s := New(Config{Workers: 1, Queue: 8})
	blocker, _, err := s.Submit([]byte(slowSpec(43)))
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit([]byte(slowSpec(44)))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Cancel(queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job after cancel = %q, want canceled", v.State)
	}
	s.Cancel(blocker.ID)
	s.Drain() // the worker dequeues the canceled job and releases it again
	var ids []string
	bytes := 0
	for _, j := range s.finished {
		ids = append(ids, j.id)
		bytes += j.textBytes()
	}
	if len(ids) != 2 || ids[0] == ids[1] || s.finishedBytes != bytes {
		t.Fatalf("finished list %v holding %d bytes (counted %d), want %s and %s once each",
			ids, bytes, s.finishedBytes, blocker.ID, queued.ID)
	}
}

// TestCoalescingSurvivesEviction: aging finished jobs out leaves the
// single-flight table alone, so a duplicate still joins the in-flight job.
func TestCoalescingSurvivesEviction(t *testing.T) {
	reg := withObs(t)
	s := New(Config{Workers: 1})
	t.Cleanup(s.Abort)
	spec := []byte(slowSpec(45))
	first, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxFinished+8; i++ {
		addFinished(t, s, "done")
	}
	dup, coalesced, err := s.Submit(spec)
	if err != nil || !coalesced || dup.ID != first.ID {
		t.Fatalf("duplicate = %s coalesced=%v err=%v, want coalesced onto %s", dup.ID, coalesced, err, first.ID)
	}
	if got := reg.Counter("service.jobs_coalesced").Value(); got != 1 {
		t.Fatalf("service.jobs_coalesced = %d, want 1", got)
	}
}

// TestFinishedJobsHeapFlat: once the table is full, serving more jobs
// costs no memory. The heap after 5×maxFinished instant jobs is within
// 1 MiB of the heap after maxFinished; keeping every job, it grew by
// ≈ 1.1 KB a job here, 2.2 MB over the 2048 in between.
func TestFinishedJobsHeapFlat(t *testing.T) {
	withObs(t)
	s := New(Config{Workers: 1, Session: withCache(t)})
	t.Cleanup(s.Abort)
	spec := []byte(quickSpec(46))
	heapAfter := func(jobs int) uint64 {
		for i := 0; i < jobs; i++ {
			finishOne(t, s, spec)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	full := heapAfter(maxFinished)
	more := heapAfter(4 * maxFinished)
	t.Logf("HeapAlloc after %d jobs %d B, after %d jobs %d B", maxFinished, full, 5*maxFinished, more)
	if diff := int64(more) - int64(full); diff > 1<<20 || diff < -1<<20 {
		t.Fatalf("heap moved %d B over %d more jobs, want within 1 MiB", diff, 4*maxFinished)
	}
}
