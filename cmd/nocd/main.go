// Command nocd is the long-running experiment service: a multi-tenant
// HTTP server that accepts declarative experiment specs (the same JSON
// `noceval run -config` consumes), schedules them on a bounded worker
// pool, coalesces identical in-flight submissions onto one simulation,
// and serves results, live job state (polling and SSE), and Prometheus
// metrics.
//
//	nocd -addr :9640 -workers 4 -queue 64 -job-timeout 2m \
//	     -cache -cache-dir .expcache -ledger runs.jsonl
//
// Endpoints (see internal/service):
//
//	POST /jobs               submit a spec; identical in-flight specs
//	                         coalesce onto one job
//	GET  /jobs               dashboard of retained jobs + scheduler state
//	GET  /jobs/{id}          job state and result
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	GET  /jobs/{id}/events   SSE stream of state transitions
//	GET  /metrics            Prometheus text format
//	GET  /metrics.json       metrics snapshot as JSON
//	GET  /vars, /progress    expvar-style and progress views (obs/export)
//	GET  /healthz            liveness (503 while draining)
//
// Memory does not grow with the jobs served: every queued and running job
// is kept, and of the finished ones the newest 512 whose result and error
// text fit in 16 MiB; older ones age out first. The three /jobs/{id}
// endpoints answer 410 Gone for an aged-out id and 404 for one never
// issued. Resubmitting an aged-out job's spec starts a new job, which
// -cache answers from the experiment cache without simulating again.
//
// Shutdown is two-stage: the first SIGTERM/SIGINT drains (stop intake,
// finish accepted jobs), a second signal aborts in-flight jobs through
// their contexts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"noceval/internal/core"
	"noceval/internal/service"
)

func main() {
	addr := flag.String("addr", ":9640", "listen address (\":0\" picks a free port)")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded job queue; submissions beyond it get 503")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock timeout (0 = none)")
	// The service serves /metrics itself, so the registry is always on:
	// job counters, per-endpoint HTTP metrics, engine and cache traffic
	// all publish into it.
	sess := core.Session{Registry: true}
	flag.BoolVar(&sess.Cache, "cache", false, "serve repeated specs from the on-disk experiment cache")
	flag.StringVar(&sess.CacheDir, "cache-dir", ".expcache", "experiment cache directory (with -cache)")
	flag.StringVar(&sess.Ledger, "ledger", "", "append one JSONL record per experiment run to this file")
	flag.BoolVar(&sess.Screen, "screen", false, "analytically screen sweep jobs (output is bit-identical)")
	flag.Parse()
	if err := sess.Open(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	svc := service.New(service.Config{
		Workers:    *workers,
		Queue:      *queue,
		JobTimeout: *jobTimeout,
		Session:    &sess,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	fmt.Printf("nocd listening on http://%s\n", ln.Addr())
	go httpSrv.Serve(ln)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "nocd: draining — accepted jobs will finish (signal again to abort)")
	drained := make(chan struct{})
	go func() {
		svc.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-sig:
		fmt.Fprintln(os.Stderr, "nocd: aborting in-flight jobs")
		svc.Abort()
		<-drained
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := sess.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	fmt.Fprintln(os.Stderr, "nocd: shut down cleanly")
}
