package main

// Micro-drivers of the layers around the simulator: the experiment cache,
// the spec entry points of internal/core, the service, and the run ledger
// and metrics export.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"noceval/internal/core"
	"noceval/internal/expcache"
	"noceval/internal/obs"
	"noceval/internal/obs/export"
	"noceval/internal/obs/ledger"
	"noceval/internal/openloop"
	"noceval/internal/service"
)

func (m *micro) cacheAndCore() {
	dir, err := m.scratch("expcache")
	if err != nil {
		m.fail("scratch dir: %v", err)
		return
	}
	c, err := expcache.Open(dir, "nocbench")
	if err != nil {
		m.fail("expcache.Open: %v", err)
		return
	}
	type cfgKey struct{ I int }
	// A stored entry shaped like a real one: an open-loop result with its
	// 64-element per-node vector.
	entry := &openloop.Result{Rate: 0.1, Stable: true, AvgLatency: 12.5, PerNodeAvg: make([]float64, 64), EndCycle: 20000}
	m.set("expcache.key_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := c.Key("bench", cfgKey{i})
			sink += len(k.Hash())
		}
	})/1e3)
	const entries = 64
	keys := make([]expcache.Key, entries)
	for i := range keys {
		keys[i], _ = c.Key("bench", cfgKey{i})
	}
	m.set("expcache.put_us", timeOp(m.unit, entries, func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Put(keys[i], entry); err != nil {
				m.fail("expcache.Put: %v", err)
				return
			}
		}
	})/1e3)
	m.set("expcache.entry_bytes_mean", dirEntryBytes(dir))
	var got openloop.Result
	m.set("expcache.get_hit_us", timeOp(m.unit, entries, func(n int) {
		for i := 0; i < n; i++ {
			if !c.Get(keys[i], &got) {
				m.fail("expcache.Get: stored entry %d missing", i)
				return
			}
		}
	})/1e3)
	absent, _ := c.Key("bench", cfgKey{-1})
	m.set("expcache.get_miss_us", timeOp(m.unit, entries, func(n int) {
		for i := 0; i < n; i++ {
			if c.Get(absent, &got) {
				m.fail("expcache.Get: absent key hit")
				return
			}
		}
	})/1e3)

	// internal/core's spec entry points, on the service workload's spec.
	body := batchSpec(specSeed(m.e.seed, 0, 0), m.e.count(svcColdB, 20))
	m.set("core.parsespec_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := core.ParseSpec(body); err != nil {
				m.fail("core.ParseSpec: %v", err)
				return
			}
		}
	})/1e3)
	spec, err := core.ParseSpec(body)
	if err != nil {
		return
	}
	m.set("core.validate_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			if err := spec.Validate(); err != nil {
				m.fail("Validate: %v", err)
				return
			}
		}
	})/1e3)
	m.set("core.spec_hash_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			h, _ := spec.Hash()
			sink += len(h)
		}
	})/1e3)
	p8 := baseline(m.e, "mesh8x8")
	m.set("core.build_us_mesh8x8", timeOp(m.unit, 16, func(n int) {
		for i := 0; i < n; i++ {
			cfg, _ := p8.Build()
			sink += cfg.Topo.N
		}
	})/1e3)
	runDir, err := m.scratch("core-cache")
	if err != nil {
		m.fail("scratch dir: %v", err)
		return
	}
	if err := core.EnableCache(runDir); err != nil {
		m.fail("core.EnableCache: %v", err)
		return
	}
	defer core.DisableCache()
	t0 := time.Now()
	cold, err := spec.RunContext(context.Background())
	if err != nil {
		m.fail("spec.RunContext: %v", err)
		return
	}
	m.set("core.run_cold_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	m.set("core.run_cached_us", timeOp(m.unit, 16, func(n int) {
		for i := 0; i < n; i++ {
			warm, err := spec.RunContext(context.Background())
			if err != nil || warm != cold {
				m.fail("cached spec.RunContext differs from the cold run (err %v)", err)
				return
			}
		}
	})/1e3)
}

func (m *micro) ledgerAndExport() {
	dir, err := m.scratch("ledger")
	if err != nil {
		m.fail("scratch dir: %v", err)
		return
	}
	led, err := ledger.Open(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		m.fail("ledger.Open: %v", err)
		return
	}
	rec := ledger.Record{Kind: "openloop", Spec: "0123456789abcdef", Engine: "activeset", WallNS: 1e6, Cycles: 20000, Stepped: 20000}
	m.set("obs.ledger_append_us", timeOp(m.unit, 64, func(n int) {
		for i := 0; i < n; i++ {
			if err := led.Append(rec); err != nil {
				m.fail("ledger.Append: %v", err)
				return
			}
		}
	})/1e3)
	if err := led.Close(); err != nil {
		m.fail("ledger.Close: %v", err)
	}
	// A registry the size of the service's: a few dozen instruments.
	reg := obs.NewRegistry()
	for _, ep := range []string{"submit", "jobs_list", "job_get", "job_cancel", "job_events", "metrics"} {
		service.NewEndpointMetrics(reg, ep)
	}
	ctr := reg.Counter("bench.counter")
	m.set("obs.counter_inc_ns", timeOp(m.unit, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}))
	m.set("obs.promtext_us", timeOp(m.unit, 16, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(export.PromText(reg))
		}
	})/1e3)
}

// waitJob blocks until the job is terminal.
func waitJob(srv *service.Server, id string) service.View {
	j, ok := srv.Job(id)
	if !ok {
		return service.View{}
	}
	for {
		v, changed := j.Watch()
		if service.Terminal(v.State) {
			return v
		}
		<-changed
	}
}

func (m *micro) serviceLayer() {
	in, err := bootService(m.e, m.parent)
	if err != nil {
		m.fail("service boot: %v", err)
		return
	}
	defer in.close()
	if err := in.prime(m.parent); err != nil {
		m.fail("%v", err)
		return
	}
	// A quarter round of the service_mix traffic, plus one burst so the
	// coalescing path is measured however short the list is.
	ops := append(append([]op{}, in.ops[:len(in.ops)/4]...), op{Kind: opBurst, Spec: len(in.ops)})
	st := in.runRound(m.parent, ops)
	for _, f := range st.failed {
		m.fail("service round: %s", f)
	}
	med := func(d []time.Duration) float64 { return percentileMS(d, 0.5) }
	m.set("service.http_post_us", med(st.postRTT)*1e3)
	m.set("service.sse_terminal_us", med(st.sseWait)*1e3)
	m.set("service.queue_wait_ms_p50", med(st.queueWait))
	m.set("service.run_ms_cold_p50", med(st.runCold))
	m.set("service.job_cached_p50_ms", med(st.latCached))
	m.set("service.job_cold_p50_ms", med(st.latCold))
	m.set("service.coalesce_ratio", float64(st.coalesced)/float64(st.dupPosts))
	m.notes = append(m.notes, fmt.Sprintf("service.coalesce_ratio: %d of %d duplicate POSTs answered 200 coalescedOnto", st.coalesced, st.dupPosts))
	m.set("service.rejected_503", float64(st.rejected))
	if cs, ok := core.CacheStats(); ok && cs.Hits+cs.Misses > 0 {
		m.set("expcache.hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
		m.notes = append(m.notes, fmt.Sprintf("expcache.hit_ratio: %d hits of %d lookups (primed cache, %d jobs)", cs.Hits, cs.Hits+cs.Misses, st.jobs))
	}

	// Submit called directly: a primed spec, one job at a time.
	var best time.Duration
	for i := 0; i < m.e.count(200, 10); i++ {
		t0 := time.Now()
		v, _, err := in.srv.Submit(in.primed[i%len(in.primed)])
		d := time.Since(t0)
		if err != nil {
			m.fail("Submit: %v", err)
			return
		}
		waitJob(in.srv, v.ID)
		if best == 0 || d < best {
			best = d
		}
	}
	m.set("service.submit_us_cached", float64(best.Nanoseconds())/1e3)
	// Duplicates of a spec whose job is still running.
	long := batchSpec(specSeed(m.e.seed, 0xffff, 0), 8*in.coldB)
	first, _, err := in.srv.Submit(long)
	if err != nil {
		m.fail("Submit: %v", err)
		return
	}
	best = 0
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		_, coalesced, err := in.srv.Submit(long)
		d := time.Since(t0)
		if err != nil || !coalesced {
			break // the job finished: later duplicates are new jobs
		}
		if best == 0 || d < best {
			best = d
		}
	}
	waitJob(in.srv, first.ID)
	if best == 0 {
		m.fail("no duplicate submission coalesced")
	}
	m.set("service.submit_us_coalesced", float64(best.Nanoseconds())/1e3)

	// The dashboard once the job table is large.
	target := m.e.count(5000, 100)
	for n := len(in.srv.Snapshot().Jobs); n < target; n++ {
		v, _, err := in.srv.Submit(in.primed[n%len(in.primed)])
		if err != nil {
			m.fail("Submit while filling the job table: %v", err)
			return
		}
		waitJob(in.srv, v.ID)
	}
	m.set("service.jobs_list_us_at_5k_jobs", timeOp(0, 1, func(int) {
		resp, err := http.Get(in.ts.URL + "/jobs")
		if err != nil {
			m.fail("GET /jobs: %v", err)
			return
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sink += int(n)
	})/1e3)
}
