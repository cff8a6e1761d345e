package service

import (
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"noceval/internal/core"
	"noceval/internal/obs/ledger"
)

// TestCoalescingSingleFlight is the tentpole proof: 32 concurrent
// submissions of one identical spec must execute exactly one simulation.
// Three independent witnesses confirm it — the run ledger holds a single
// run record, the coalesce counter reads 31, and all 32 submitters land
// on one job id whose result bytes they share.
func TestCoalescingSingleFlight(t *testing.T) {
	reg := withObs(t)
	sess := &core.Session{Ledger: filepath.Join(t.TempDir(), "runs.jsonl"), Log: io.Discard}
	if err := sess.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close(io.Discard) })

	_, ts := newTestServer(t, Config{Workers: 4, Session: sess})
	// Long enough (1M measured cycles) that the job is still in flight
	// while all 32 submissions land, short enough to finish in-test.
	spec := specJSON(0.1, 7, 1_000_000)

	const N = 32
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		mu    sync.Mutex
		codes []int
		ids   = make(map[string]int)
		fresh int
	)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, sr := postSpec(t, ts.URL, spec)
			mu.Lock()
			codes = append(codes, code)
			ids[sr.ID]++
			if !sr.CoalescedOnto {
				fresh++
			}
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if len(ids) != 1 {
		t.Fatalf("submissions landed on %d distinct jobs %v, want 1", len(ids), ids)
	}
	if fresh != 1 {
		t.Fatalf("%d submissions created a job, want exactly 1", fresh)
	}
	var accepted, ok int
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			ok++
		}
	}
	if accepted != 1 || ok != N-1 {
		t.Fatalf("status split = %d accepted / %d coalesced, want 1/%d", accepted, ok, N-1)
	}
	if got := reg.Counter("service.jobs_coalesced").Value(); got != N-1 {
		t.Fatalf("service.jobs_coalesced = %d, want %d", got, N-1)
	}
	if got := reg.Counter("service.jobs_submitted").Value(); got != 1 {
		t.Fatalf("service.jobs_submitted = %d, want 1", got)
	}

	var id string
	for k := range ids {
		id = k
	}
	final := waitTerminal(t, ts.URL, id, 120*time.Second)
	if final.State != StateDone {
		t.Fatalf("coalesced job ended %q (error %q), want done", final.State, final.Error)
	}
	if final.Coalesced != N-1 {
		t.Fatalf("job view coalesced = %d, want %d", final.Coalesced, N-1)
	}

	// All 32 clients read byte-identical results.
	results := make(map[string]bool)
	for i := 0; i < N; i++ {
		_, v := getView(t, ts.URL, id)
		if v.Result == "" {
			t.Fatal("empty result on a done job")
		}
		results[v.Result] = true
	}
	if len(results) != 1 {
		t.Fatalf("clients saw %d distinct result payloads, want 1", len(results))
	}

	// Exactly one simulation ran: one ledger record, one runner start.
	if err := sess.Close(io.Discard); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := ledger.ReadFile(sess.Ledger); err != nil || len(recs) != 1 {
		t.Fatalf("ledger run records = %d (%v), want 1", len(recs), err)
	}
	if got := reg.Counter("core.runs_started").Value(); got != 1 {
		t.Fatalf("core.runs_started = %d, want 1", got)
	}
}

// TestShardedTwinCoalesces: the shard count is not part of a spec's
// content address (results are bit-identical at any count), so a Shards:2
// submission joins its in-flight shard-free twin instead of simulating
// the same numbers a second time.
func TestShardedTwinCoalesces(t *testing.T) {
	reg := withObs(t)
	t.Setenv("NOCEVAL_SHARDS", "")
	_, ts := newTestServer(t, Config{Workers: 2})
	plain := slowSpec(9)
	sharded := strings.Replace(plain, `"Seed":9`, `"Seed":9,"Shards":2`, 1)
	if sharded == plain {
		t.Fatal("spec body has no Seed field to extend")
	}

	code, first := postSpec(t, ts.URL, plain)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	code, twin := postSpec(t, ts.URL, sharded)
	if code != http.StatusOK || !twin.CoalescedOnto || twin.ID != first.ID {
		t.Fatalf("Shards:2 twin = %d coalesced=%v id=%s, want 200 coalesced onto %s",
			code, twin.CoalescedOnto, twin.ID, first.ID)
	}
	if twin.SpecHash != first.SpecHash {
		t.Fatalf("spec hashes differ: %s vs %s", twin.SpecHash, first.SpecHash)
	}
	if got := reg.Counter("service.jobs_coalesced").Value(); got != 1 {
		t.Fatalf("jobs_coalesced = %d, want 1", got)
	}
}

// TestRepeatServedFromCache covers the second half of dedup: once the
// first job completes (so the single-flight entry is gone), resubmitting
// the identical spec starts a fresh job whose simulation is answered by
// the content-addressed experiment cache of the server's session — same
// result bytes, cache hit counted, no second engine run.
func TestRepeatServedFromCache(t *testing.T) {
	reg := withObs(t)
	_, ts := newTestServer(t, Config{Workers: 2, Session: withCache(t)})
	spec := quickSpec(8)

	_, first := postSpec(t, ts.URL, spec)
	v1 := waitTerminal(t, ts.URL, first.ID, 30*time.Second)
	if v1.State != StateDone {
		t.Fatalf("first job ended %q (error %q)", v1.State, v1.Error)
	}

	code, second := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted || second.CoalescedOnto {
		t.Fatalf("repeat submit = %d coalesced=%v, want a fresh 202 job (first already finished)",
			code, second.CoalescedOnto)
	}
	if second.ID == first.ID {
		t.Fatal("repeat after completion reused the old job id")
	}
	v2 := waitTerminal(t, ts.URL, second.ID, 30*time.Second)
	if v2.State != StateDone {
		t.Fatalf("repeat job ended %q (error %q)", v2.State, v2.Error)
	}
	if v1.Result != v2.Result {
		t.Fatalf("cache-served repeat differs:\nfirst:  %q\nrepeat: %q", v1.Result, v2.Result)
	}
	if hits := reg.Counter("expcache.hits").Value(); hits < 1 {
		t.Fatalf("expcache.hits = %d, want >= 1 (repeat must be cache-served)", hits)
	}
	// Both jobs consulted the runner layer, but only the first stepped an
	// engine: the repeat's engine.runs counter stays where the first left
	// it.
	if runs := reg.Counter("engine.runs").Value(); runs != 1 {
		t.Fatalf("engine.runs = %d, want 1 (cache hit must not simulate)", runs)
	}
}

// runOnce submits spec to the server at url and returns its done view.
func runOnce(t *testing.T, url, spec string) View {
	t.Helper()
	_, sr := postSpec(t, url, spec)
	v := waitTerminal(t, url, sr.ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("job ended %q (error %q)", v.State, v.Error)
	}
	return v
}

// cacheEntries counts the result entries stored under an experiment
// cache directory.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServersKeepTheirOwnCaches: two servers in one process, each in its
// own session with its own cache directory. A spec run on A and then on B
// is a miss on B, and each directory holds only its own entry.
func TestServersKeepTheirOwnCaches(t *testing.T) {
	withObs(t)
	sa, sb := withCache(t), withCache(t)
	_, a := newTestServer(t, Config{Workers: 1, Session: sa})
	_, b := newTestServer(t, Config{Workers: 1, Session: sb})
	spec := quickSpec(12)
	if runOnce(t, a.URL, spec).Result != runOnce(t, b.URL, spec).Result {
		t.Fatal("the two servers returned different results for one spec")
	}
	for name, sess := range map[string]*core.Session{"A": sa, "B": sb} {
		var out strings.Builder
		if err := sess.Close(&out); err != nil {
			t.Fatal(err)
		}
		if want := "experiment cache: 0 hits, 1 misses, 1 writes, 0 dropped entries\n"; out.String() != want {
			t.Errorf("server %s's session summary = %q, want %q", name, out.String(), want)
		}
		if n := cacheEntries(t, sess.CacheDir); n != 1 {
			t.Errorf("server %s's cache directory holds %d entries, want 1", name, n)
		}
	}
}

// TestNilSessionServesDefaultCache: a server with no Session runs in the
// default session, so it serves a repeat from the cache core.EnableCache
// opened.
func TestNilSessionServesDefaultCache(t *testing.T) {
	withObs(t)
	if err := core.EnableCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(core.DisableCache)
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := quickSpec(13)
	if runOnce(t, ts.URL, spec).Result != runOnce(t, ts.URL, spec).Result {
		t.Fatal("the cache-served repeat differs")
	}
	if st, _ := core.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("default cache stats %+v, want 1 miss, 1 put and 1 hit", st)
	}
}
