package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"noceval/internal/workload"
)

// RunAll's results are bit-identical to the direct runner calls, in input
// order, for every kind the figures list.
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
			want, err := Batch(p, BatchParams{B: 100, M: m})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[k], &Result{Batch: want}) {
				t.Errorf("%s m=%d: RunAll %+v, direct %+v", p, m, got[k].Batch, want)
			}
			k++
		}
		ol, err := OpenLoopWith(p, 0.1, short)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], &Result{OpenLoop: ol}) {
			t.Errorf("%s openloop: RunAll %+v, direct %+v", p, got[k].OpenLoop, ol)
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
	if len(rs.done) != 0 {
		t.Errorf("the set keeps %d results of a failed call", len(rs.done))
	}
}

// A spec listed twice is simulated once: one ledger record, one shared
// result, also when a later call on the same set lists it again.
func TestRunAllSimulatesDuplicatesOnce(t *testing.T) {
	if err := EnableLedger(filepath.Join(t.TempDir(), "runs.jsonl")); err != nil {
		t.Fatal(err)
	}
	defer DisableLedger()
	tr1 := Baseline()
	q16 := Baseline()
	q16.BufDepth = 16 // the baseline's own depth: the same network
	specs := []ExperimentSpec{
		{Kind: "batch", Network: tr1, B: 50, M: 2},
		{Kind: "batch", Network: q16, B: 50, M: 2},
	}
	var rs RunSet
	res, err := rs.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	later, err := rs.RunAll(context.Background(), []ExperimentSpec{{Kind: "batch", Network: q16, B: 50, M: 4}, specs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if n := LedgerAppends(); n != 2 {
		t.Errorf("ledger records = %d, want 2", n)
	}
	if res[0] != res[1] || later[1] != res[0] {
		t.Error("duplicate specs got distinct results")
	}
}

// Specs reach the cache entries the direct runners write: a cache warmed
// by Batch, OpenLoopWith, OpenLoopSweepWith and Exec serves the equivalent
// specs without a miss or a write. The exec entry is keyed the way Figs
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
	model, err := reply.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Batch(p, BatchParams{B: 50, M: 2, Reply: model}); err != nil {
		t.Fatal(err)
	}
	if _, err := Batch(p, BatchParams{B: 50, NAR: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLoopWith(p, 0.1, short); err != nil {
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
	if hits := after.Hits - before.Hits; hits != int64(4+len(rates)) {
		t.Errorf("hits = %d, want %d", hits, 4+len(rates))
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
