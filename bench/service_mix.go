package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noceval/internal/core"
	"noceval/internal/service"
)

// The service_mix traffic: a closed loop of two clients, each with one
// keep-alive connection, working through one seeded list of operations.
const (
	svcClients    = 2
	svcOpsRound   = 1200
	svcPrimed     = 16
	svcBurstPosts = 4
	// Shares of the op list, in 1/100: the rest is cached.
	svcColdPct  = 12
	svcBurstPct = 4
	// svcColdB sizes a cold job (batch model on mesh4x4, m=4) to about
	// 10 ms of simulation on the reference host.
	svcColdB = 250
)

const (
	opCached = "cached" // one of the primed specs: served from the experiment cache
	opCold   = "cold"   // a never-seen spec: a real simulation
	opBurst  = "burst"  // a never-seen spec POSTed svcBurstPosts times back to back
)

// op is one entry of the seeded operation list. Spec indexes the primed
// specs for a cached op and numbers the fresh specs otherwise.
type op struct {
	Kind string `json:"kind"`
	Spec int    `json:"spec"`
}

// genOps builds the operation list for a seed: exact shares, seeded order.
func genOps(seed uint64, n int) []op {
	rng := rand.New(rand.NewSource(int64(seed)))
	ops := make([]op, 0, n)
	cold, burst := n*svcColdPct/100, n*svcBurstPct/100
	for i := 0; i < n; i++ {
		switch {
		case i < cold:
			ops = append(ops, op{Kind: opCold, Spec: i})
		case i < cold+burst:
			ops = append(ops, op{Kind: opBurst, Spec: i})
		default:
			ops = append(ops, op{Kind: opCached, Spec: rng.Intn(svcPrimed)})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// batchSpec is the JSON body of one batch-model job on the 4x4 mesh; the
// network seed is what makes a spec distinct.
func batchSpec(netSeed uint64, b int) []byte {
	p := core.Baseline()
	p.Topology = "mesh4x4"
	p.Seed = netSeed
	p.Shards = 0
	data, err := json.Marshal(core.ExperimentSpec{Kind: "batch", Network: p, B: b, M: 4})
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return data
}

// specSeed spreads (seed, round, ordinal) over disjoint network seeds so a
// fresh spec is never one the cache has seen: round 0 holds the primed
// specs, rounds count up from 1 over the life of one server.
func specSeed(seed uint64, round, ordinal int) uint64 {
	return seed<<32 | uint64(round)<<16 | uint64(ordinal)
}

// svcInstance is one booted server with its primed cache.
type svcInstance struct {
	e      *env
	srv    *service.Server
	ts     *httptest.Server
	dir    string
	ops    []op
	primed [][]byte
	coldB  int
	round  int

	mu sync.Mutex
	// first is the first result text seen per spec hash; every later
	// result for that hash must equal it.
	first map[string]string
}

func bootService(e *env, parent int) (*svcInstance, error) {
	s := e.tr.begin(parent, "service.boot")
	defer e.tr.end(s)
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.dir, "svc-cache-")
	if err != nil {
		return nil, err
	}
	if err := core.EnableCache(dir); err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Workers: 1, Queue: 64})
	in := &svcInstance{
		e: e, srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir,
		ops:   genOps(e.seed, e.count(svcOpsRound, 50)),
		coldB: e.count(svcColdB, 20),
		first: map[string]string{},
	}
	for i := 0; i < svcPrimed; i++ {
		in.primed = append(in.primed, batchSpec(specSeed(e.seed, 0, i), in.coldB))
	}
	return in, nil
}

func (in *svcInstance) close() {
	in.ts.Close()
	in.srv.Drain()
	core.DisableCache()
	os.RemoveAll(in.dir)
}

// client is one closed-loop user: a single keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post submits one spec and returns the HTTP status and decoded body.
func (c *client) post(body []byte) (int, service.SubmitResponse, error) {
	var sr service.SubmitResponse
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, sr, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, sr, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, sr, fmt.Errorf("POST /jobs: %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, sr, json.Unmarshal(data, &sr)
}

// await follows the job's event stream to its terminal event.
func (c *client) await(id string) (service.View, error) {
	var v service.View
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET events %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &v); err != nil {
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	if !service.Terminal(v.State) {
		return v, fmt.Errorf("event stream of %s ended in state %q", id, v.State)
	}
	return v, nil
}

// roundStats is what one round of the op list measured.
type roundStats struct {
	jobs      int
	failed    []string
	latCached []time.Duration // POST written -> terminal event read
	latCold   []time.Duration
	latBurst  []time.Duration
	postRTT   []time.Duration // POST round trip, cached ops
	sseWait   []time.Duration // POST answered -> terminal event read, cached ops
	queueWait []time.Duration // View.SubmittedAt -> StartedAt, every job
	runCold   []time.Duration // View.StartedAt -> FinishedAt, cold jobs
	rejected  int             // POSTs answered 503
	dupPosts  int             // duplicate POSTs sent by burst ops
	coalesced int             // of those, answered 200 coalescedOnto
	simCycles int64           // simulated runtime of the cold and burst jobs
}

func (r *roundStats) merge(o *roundStats) {
	r.jobs += o.jobs
	r.failed = append(r.failed, o.failed...)
	r.latCached = append(r.latCached, o.latCached...)
	r.latCold = append(r.latCold, o.latCold...)
	r.latBurst = append(r.latBurst, o.latBurst...)
	r.postRTT = append(r.postRTT, o.postRTT...)
	r.sseWait = append(r.sseWait, o.sseWait...)
	r.queueWait = append(r.queueWait, o.queueWait...)
	r.runCold = append(r.runCold, o.runCold...)
	r.rejected += o.rejected
	r.dupPosts += o.dupPosts
	r.coalesced += o.coalesced
	r.simCycles += o.simCycles
}

// viewTimes parses the three timestamps of a terminal view.
func viewTimes(v service.View) (sub, start, fin time.Time, err error) {
	if sub, err = time.Parse(time.RFC3339Nano, v.SubmittedAt); err != nil {
		return
	}
	if start, err = time.Parse(time.RFC3339Nano, v.StartedAt); err != nil {
		return
	}
	fin, err = time.Parse(time.RFC3339Nano, v.FinishedAt)
	return
}

// check applies the correctness rules to one terminal view.
func (in *svcInstance) check(st *roundStats, v service.View) {
	if v.State != service.StateDone {
		st.failed = append(st.failed, fmt.Sprintf("job %s ended %s: %s", v.ID, v.State, v.Error))
		return
	}
	in.mu.Lock()
	want, seen := in.first[v.SpecHash]
	if !seen {
		in.first[v.SpecHash] = v.Result
	}
	in.mu.Unlock()
	if seen && want != v.Result {
		st.failed = append(st.failed, fmt.Sprintf("job %s: result differs from the first result of spec %s", v.ID, v.SpecHash))
	}
}

// runOp performs one operation of the list and records it. parent is the
// round's span.
func (in *svcInstance) runOp(c *client, st *roundStats, o op, parent int) {
	st.jobs++
	var body []byte
	posts := 1
	switch o.Kind {
	case opCached:
		body = in.primed[o.Spec]
	case opCold:
		body = batchSpec(specSeed(in.e.seed, in.round, o.Spec), in.coldB)
	case opBurst:
		body = batchSpec(specSeed(in.e.seed, in.round, o.Spec), in.coldB)
		posts = svcBurstPosts
	}
	t0 := time.Now()
	var tPosted time.Time
	ids := make([]string, 0, posts)
	for i := 0; i < posts; i++ {
		status, sr, err := c.post(body)
		if status == http.StatusServiceUnavailable {
			st.rejected++
		}
		if err != nil {
			st.failed = append(st.failed, err.Error())
			return
		}
		if i == 0 {
			tPosted = time.Now()
		} else {
			st.dupPosts++
			if status == http.StatusOK && sr.CoalescedOnto {
				st.coalesced++
			}
		}
		if len(ids) == 0 || ids[len(ids)-1] != sr.ID {
			ids = append(ids, sr.ID)
		}
	}
	var view service.View
	for i, id := range ids {
		v, err := c.await(id)
		if err != nil {
			st.failed = append(st.failed, err.Error())
			return
		}
		in.check(st, v)
		if i == 0 {
			view = v
		}
	}
	tDone := time.Now()
	sub, start, fin, err := viewTimes(view)
	if err != nil {
		st.failed = append(st.failed, fmt.Sprintf("job %s: %v", view.ID, err))
		return
	}
	st.queueWait = append(st.queueWait, start.Sub(sub))
	lat := tDone.Sub(t0)
	switch o.Kind {
	case opCached:
		st.latCached = append(st.latCached, lat)
		st.postRTT = append(st.postRTT, tPosted.Sub(t0))
		st.sseWait = append(st.sseWait, tDone.Sub(tPosted))
	case opCold:
		st.latCold = append(st.latCold, lat)
		st.runCold = append(st.runCold, fin.Sub(start))
	case opBurst:
		st.latBurst = append(st.latBurst, lat)
	}
	if o.Kind != opCached {
		var runtime int64
		if i := strings.Index(view.Result, "runtime "); i >= 0 {
			fmt.Sscanf(view.Result[i:], "runtime %d", &runtime)
		}
		if runtime == 0 {
			st.failed = append(st.failed, fmt.Sprintf("job %s: no runtime in result %q", view.ID, view.Result))
		}
		st.simCycles += runtime
	}
	if tr := in.e.tr; tr != nil {
		job := tr.add(parent, "service.job."+o.Kind, view.ID, t0, tDone)
		tr.add(job, "service.http_post", view.ID, t0, tPosted)
		tr.add(job, "service.queued", view.ID, sub, start)
		tr.add(job, "service.run", view.ID, start, fin)
		tr.add(job, "service.sse_wait", view.ID, tPosted, tDone)
	}
}

// round works through the op list once with svcClients closed-loop clients.
func (in *svcInstance) runRound(parent int, ops []op) *roundStats {
	in.round++
	var next atomic.Int64
	parts := make([]roundStats, svcClients)
	var wg sync.WaitGroup
	for ci := 0; ci < svcClients; ci++ {
		wg.Add(1)
		go func(st *roundStats) {
			defer wg.Done()
			c := newClient(in.ts.URL)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				in.runOp(c, st, ops[i], parent)
			}
		}(&parts[ci])
	}
	wg.Wait()
	total := &roundStats{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// prime runs each primed spec once so its result is in the cache.
func (in *svcInstance) prime(parent int) error {
	s := in.e.tr.begin(parent, "service.prime")
	defer in.e.tr.end(s)
	c := newClient(in.ts.URL)
	defer c.close()
	st := &roundStats{}
	for i := range in.primed {
		in.runOp(c, st, op{Kind: opCached, Spec: i}, s)
	}
	if len(st.failed) > 0 {
		return fmt.Errorf("priming: %s", st.failed[0])
	}
	return nil
}

func serviceSetup(e *env) (repFunc, func(), error) {
	root := e.tr.begin(0, "setup")
	defer e.tr.end(root)
	in, err := bootService(e, root)
	if err != nil {
		return nil, nil, err
	}
	if err := in.prime(root); err != nil {
		in.close()
		return nil, nil, err
	}
	rep := func(parent int, short bool) repOut {
		ops := in.ops
		if short {
			ops = ops[:len(ops)/4]
		}
		s := e.tr.begin(parent, "service.round")
		st := in.runRound(s, ops)
		e.tr.end(s)
		return repOut{ops: st.jobs, fails: st.failed, simCycles: st.simCycles, svc: st}
	}
	if _, _, err := finishSetup(e, root, rep); err != nil {
		in.close()
		return nil, nil, err
	}
	return rep, in.close, nil
}
