package core

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"noceval/internal/workload"
)

// RunAll's results are bit-identical to lone runs of the same specs
// outside any set, in input order, for every kind the figures list.
func TestRunAllMatchesDirectRuns(t *testing.T) {
	variants := routerDelays(1, 2)
	ms := []int{1, 4}
	short := OpenLoopOpts{Warmup: 500, Measure: 1000, DrainLimit: 20000}
	rates := []float64{0.1, 0.2}
	var specs []ExperimentSpec
	for _, p := range variants {
		for _, m := range ms {
			specs = append(specs, ExperimentSpec{Kind: "batch", Network: p, B: 100, M: m})
		}
		specs = append(specs,
			ExperimentSpec{Kind: "openloop", Network: p, Rate: 0.1, Warmup: 500, Measure: 1000, DrainLimit: 20000},
			ExperimentSpec{Kind: "sweep", Network: p, Rates: rates, Warmup: 500, Measure: 1000, DrainLimit: 20000})
	}
	got, err := new(RunSet).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, p := range variants {
		for _, m := range ms {
			want, err := runSpec(context.Background(), specs[k])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[k], want) {
				t.Errorf("%s m=%d: RunAll %+v, lone %+v", p, m, got[k].Batch, want.Batch)
			}
			k++
		}
		ol, err := runSpec(context.Background(), specs[k])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], ol) {
			t.Errorf("%s openloop: RunAll %+v, lone %+v", p, got[k].OpenLoop, ol.OpenLoop)
		}
		sweep, err := OpenLoopSweepWith(p, rates, short)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k+1], &Result{Sweep: sweep}) {
			t.Errorf("%s sweep differs from the direct sweep", p)
		}
		k += 2
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	bad := Baseline()
	bad.Routing = "zigzag"
	specs := []ExperimentSpec{
		{Kind: "batch", Network: Baseline(), B: 10, M: 1},
		{Kind: "batch", Network: bad, B: 10, M: 1},
	}
	var rs RunSet
	if _, err := rs.RunAll(context.Background(), specs); err == nil {
		t.Error("a batch that cannot build was accepted")
	}
	if len(rs.runs) != 0 {
		t.Errorf("the set ran %d runs of a call that failed validation", len(rs.runs))
	}
}

// A run listed twice is simulated once: one ledger record, one shared
// result, also when a later call on the same set lists it again.
func TestRunAllSimulatesDuplicatesOnce(t *testing.T) {
	sess := &Session{Ledger: filepath.Join(t.TempDir(), "runs.jsonl")}
	openSession(t, sess)
	tr1 := Baseline()
	q16 := Baseline()
	q16.BufDepth = 16 // the baseline's own depth: the same network
	specs := []ExperimentSpec{
		{Kind: "batch", Network: tr1, B: 50, M: 2},
		{Kind: "batch", Network: q16, B: 50, M: 2},
	}
	rs := RunSet{Session: sess}
	res, err := rs.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	later, err := rs.RunAll(context.Background(), []ExperimentSpec{{Kind: "batch", Network: q16, B: 50, M: 4}, specs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.led.Load().Appends(); n != 2 {
		t.Errorf("ledger records = %d, want 2", n)
	}
	if res[0].Batch != res[1].Batch || later[1].Batch != res[0].Batch {
		t.Error("duplicate specs got distinct results")
	}
}

// Specs reach the cache entries the runners write: a cache warmed by lone
// batch and openloop specs, OpenLoopSweepWith and Exec serves the
// equivalent specs of a set without a miss or a write. The exec entry is keyed the way Figs
// 14/15/18/19 key theirs, with ExecParams{Seed: 7}, whose zero clock is
// 75 MHz: a spec that spells Clock75MHz.SpecName() hits it, and a spec
// with no clock runs at 3 GHz and misses.
func TestRunAllHitsDirectlyWarmedCache(t *testing.T) {
	if err := EnableCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer DisableCache()
	p := Table2Network(2)
	short := OpenLoopOpts{Warmup: 200, Measure: 1000, DrainLimit: 3000}
	rates := []float64{0.05, 0.1}
	reply := &ReplySpec{Type: "fixed", Latency: 20}
	if _, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: p, B: 50, M: 2, Reply: reply}); err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: p, B: 50, NAR: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(context.Background(), openLoopSpec(p, 0.1, short)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLoopSweepWith(p, rates, short); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(p, ExecParams{Benchmark: "blackscholes", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	before, _ := CacheStats()
	specs := []ExperimentSpec{
		{Kind: "batch", Network: p, B: 50, M: 2, Reply: reply},
		{Kind: "batch", Network: p, B: 50, NAR: 0.2},
		{Kind: "openloop", Network: p, Rate: 0.1, Warmup: 200, Measure: 1000, DrainLimit: 3000},
		{Kind: "sweep", Network: p, Rates: rates, Warmup: 200, Measure: 1000, DrainLimit: 3000},
		{Kind: "exec", Network: p, Benchmark: "blackscholes", Clock: workload.Clock75MHz.SpecName(), Seed: 7},
	}
	if _, err := new(RunSet).RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	after, _ := CacheStats()
	if misses, writes := after.Misses-before.Misses, after.Puts-before.Puts; misses != 0 || writes != 0 {
		t.Errorf("specs cost %d misses and %d writes on a warm cache, want 0 and 0", misses, writes)
	}
	// The openloop spec and the sweep's 0.1 point are one run of the set.
	if hits := after.Hits - before.Hits; hits != int64(4+len(rates)-1) {
		t.Errorf("hits = %d, want %d", hits, 4+len(rates)-1)
	}
	clockless := specs[len(specs)-1]
	clockless.Clock = ""
	if _, err := new(RunSet).RunAll(context.Background(), []ExperimentSpec{clockless}); err != nil {
		t.Fatal(err)
	}
	if last, _ := CacheStats(); last.Misses-after.Misses != 1 {
		t.Errorf("a clock-less exec spec missed %d times, want 1 (it runs at 3 GHz)", last.Misses-after.Misses)
	}
}

// A sweep point is one run whoever needs it: in one call, a sweep, a
// second sweep whose rates extend the first's (the shape of Fig 1 beside
// Fig 6a's mesh curve) and an openloop spec at one of their rates append
// one ledger record per distinct point, and each gets what a direct run
// returns.
func TestRunAllSharesSweepPoints(t *testing.T) {
	p := Baseline()
	short := OpenLoopOpts{Warmup: 500, Measure: 1000, DrainLimit: 20000}
	first := []float64{0.05, 0.1, 0.15}
	extended := []float64{0.05, 0.1, 0.15, 0.2, 0.25}
	specs := []ExperimentSpec{
		{Kind: "sweep", Network: p, Rates: first, Warmup: 500, Measure: 1000, DrainLimit: 20000},
		{Kind: "sweep", Network: p, Rates: extended, Warmup: 500, Measure: 1000, DrainLimit: 20000},
		{Kind: "openloop", Network: p, Rate: 0.1, Warmup: 500, Measure: 1000, DrainLimit: 20000},
	}
	sess := &Session{Ledger: filepath.Join(t.TempDir(), "runs.jsonl")}
	openSession(t, sess)
	got, err := (&RunSet{Session: sess}).RunAll(context.Background(), specs)
	if cerr := sess.Close(io.Discard); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t, sess.Ledger)
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.Spec] {
			t.Errorf("%s run %s simulated twice", r.Kind, r.Spec)
		}
		seen[r.Spec] = true
	}
	if len(recs) != len(extended) {
		t.Errorf("ledger records = %d, want %d (one per distinct point)", len(recs), len(extended))
	}
	for i, rates := range [][]float64{first, extended} {
		want, err := OpenLoopSweepWith(p, rates, short)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Sweep, want) {
			t.Errorf("sweep over %v differs from the direct sweep", rates)
		}
	}
	want, err := runSpec(context.Background(), specs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[2], want) {
		t.Errorf("openloop 0.1: RunAll %+v, lone %+v", got[2].OpenLoop, want.OpenLoop)
	}
}

// A point a sweep's wave discards is not handed on: at GOMAXPROCS 2 the
// transpose sweep launches {0.21, 0.28} together and cancels 0.28 once
// 0.21 proves unstable, while an openloop spec of the same call needs 0.28.
// Whichever of the two starts 0.28 first — the sweep, whose run is then
// discarded and re-run for the openloop spec, or the openloop spec, whose
// run the sweep's cancelled point stops waiting for — 0.28 completes once,
// the openloop spec gets a result equal to a direct run, and the sweep its
// direct curve. TestRunSetShareRerunsFailedRuns pins the first order.
func TestRunAllRerunsDiscardedPoints(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := Baseline()
	p.Pattern = "transpose"
	short := OpenLoopOpts{Warmup: 500, Measure: 2000, DrainLimit: 5000}
	rates := []float64{0.07, 0.14, 0.21, 0.28}
	specs := []ExperimentSpec{
		{Kind: "sweep", Network: p, Rates: rates, Warmup: 500, Measure: 2000, DrainLimit: 5000},
		{Kind: "openloop", Network: p, Rate: 0.28, Warmup: 500, Measure: 2000, DrainLimit: 5000},
	}
	sess := &Session{Ledger: filepath.Join(t.TempDir(), "runs.jsonl")}
	openSession(t, sess)
	got, err := (&RunSet{Session: sess}).RunAll(context.Background(), specs)
	if cerr := sess.Close(io.Discard); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t, sess.Ledger)
	completed, discarded := map[string]int{}, 0
	for _, r := range recs {
		if r.Err == "" {
			completed[r.Spec]++
		} else if strings.Contains(r.Err, "sweep discarded") {
			discarded++
		}
	}
	t.Logf("%d ledger records, %d of them discarded by the sweep", len(recs), discarded)
	for key, n := range completed {
		if n != 1 {
			t.Errorf("run %s completed %d times, want once", key, n)
		}
	}
	sweep, err := OpenLoopSweepWith(p, rates, short)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 3 || sweep[2].Stable {
		t.Fatalf("the direct sweep reported %d points; want 0.21 as the first unstable one", len(sweep))
	}
	if !reflect.DeepEqual(got[0].Sweep, sweep) {
		t.Error("the sweep differs from the direct sweep")
	}
	want, err := runSpec(context.Background(), specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[1], want) {
		t.Errorf("openloop 0.28: RunAll %+v, lone %+v", got[1].OpenLoop, want.OpenLoop)
	}
}

// share drops a failed run, so a caller waiting on it runs it again, and a
// waiter whose context ends stops waiting.
func TestRunSetShareRerunsFailedRuns(t *testing.T) {
	var rs RunSet
	started, fail := make(chan struct{}), make(chan struct{})
	discarded := errors.New("discarded")
	ownerErr := make(chan error)
	go func() {
		_, err := rs.share(context.Background(), "k", func() (any, error) {
			close(started)
			<-fail
			return nil, discarded
		})
		ownerErr <- err
	}()
	<-started
	waiter := make(chan any)
	go func() {
		v, err := rs.share(context.Background(), "k", func() (any, error) { return 42, nil })
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	stopped, stop := context.WithCancelCause(context.Background())
	stop(discarded)
	if _, err := rs.share(stopped, "k", func() (any, error) { return nil, nil }); err != discarded {
		t.Errorf("a cancelled waiter returned %v, want its context's cause", err)
	}
	close(fail)
	if err := <-ownerErr; err != discarded {
		t.Errorf("the owner returned %v, want its own error", err)
	}
	if v := <-waiter; v != 42 {
		t.Errorf("the waiter got %v, want the result of its own run", v)
	}
	if v, err := rs.share(context.Background(), "k", func() (any, error) { return 0, nil }); v != 42 || err != nil {
		t.Errorf("a later call got %v, %v; want the kept result 42", v, err)
	}
}

// A barrier of 0 phases runs one phase, so Barrier(p, b, 0) and barrier
// specs of 0 and 1 phases are one run: one run key, and a set simulates
// the specs once.
func TestBarrierPhasesZeroIsOneRun(t *testing.T) {
	read := withLedger(t)
	p := Baseline()
	p.Topology = "mesh4x4"
	if _, err := Barrier(p, 20, 0); err != nil {
		t.Fatal(err)
	}
	specs := []ExperimentSpec{{Kind: "barrier", Network: p, B: 20}, {Kind: "barrier", Network: p, B: 20, Phases: 1}}
	if _, err := new(RunSet).RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	recs := read()
	if len(recs) != 2 {
		t.Fatalf("ledger records = %d, want 2: the lone run and one run for both specs", len(recs))
	}
	if recs[0].Spec == "" || recs[1].Spec != recs[0].Spec {
		t.Errorf("run keys %q and %q, want one", recs[0].Spec, recs[1].Spec)
	}
}

// An ideal exec run never builds its network, so ideal specs on two
// networks with one seed are one run: one run key, simulated once.
func TestIdealExecKeyIgnoresNetwork(t *testing.T) {
	read := withLedger(t)
	spec := func(tr int64) ExperimentSpec {
		return ExperimentSpec{Kind: "exec", Network: Table2Network(tr), Benchmark: "blackscholes", Ideal: true, Seed: 3}
	}
	res, err := new(RunSet).RunAll(context.Background(), []ExperimentSpec{spec(1), spec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if recs := read(); len(recs) != 1 || recs[0].Spec == "" {
		t.Fatalf("ledger records %+v, want one run", recs)
	}
	if res[0].Exec != res[1].Exec {
		t.Error("the two ideal specs got distinct results")
	}
}
