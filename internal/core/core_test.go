package core

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/cmp"
	"noceval/internal/workload"
)

func TestBaselineMatchesTableI(t *testing.T) {
	p := Baseline()
	if p.Topology != "mesh8x8" || p.VCs != 2 || p.BufDepth != 16 ||
		p.RouterDelay != 1 || p.Routing != "dor" || p.Arb != "rr" {
		t.Errorf("baseline drifted from Table I: %+v", p)
	}
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topo.N != 64 {
		t.Errorf("baseline nodes = %d", cfg.Topo.N)
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	for _, mutate := range []func(*NetworkParams){
		func(p *NetworkParams) { p.Topology = "blob" },
		func(p *NetworkParams) { p.Routing = "zigzag" },
		func(p *NetworkParams) { p.Arb = "coinflip" },
		func(p *NetworkParams) { p.VCs = 0 },
		func(p *NetworkParams) { p.Topology = "torus8x8"; p.Routing = "val"; p.VCs = 2 }, // needs 4 classes
	} {
		p := Baseline()
		mutate(&p)
		if _, err := p.Build(); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
	p := Baseline()
	p.Sizes = "trimodal"
	if _, err := p.BuildSizes(); err == nil {
		t.Error("bad size mix accepted")
	}
	p.Pattern = "nope"
	if _, err := p.BuildPattern(); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestParamsString(t *testing.T) {
	s := Baseline().String()
	for _, want := range []string{"mesh8x8", "dor", "tr=1", "q=16"} {
		if !strings.Contains(s, want) {
			t.Errorf("label %q missing %q", s, want)
		}
	}
}

func TestOpenLoopAndBatchRunners(t *testing.T) {
	p := Baseline()
	res, err := runSpec(context.Background(), ExperimentSpec{Kind: "openloop", Network: p, Rate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ol := res.OpenLoop; !ol.Stable || ol.AvgLatency < 10 {
		t.Errorf("open-loop runner: %+v", ol)
	}
	res, err = runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: p, B: 100, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Batch.Completed {
		t.Error("batch runner did not complete")
	}
	bar, err := Barrier(p, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bar.Completed {
		t.Error("barrier runner did not complete")
	}
}

func TestNormalizeGroup(t *testing.T) {
	out, err := NormalizeGroup([]float64{5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 4 {
		t.Errorf("normalized = %v", out)
	}
	if _, err := NormalizeGroup([]float64{0, 1}); err == nil {
		t.Error("zero baseline accepted")
	}
}

// correlateOpenBatch runs the Fig 5 procedure as the figure generators
// do: the batch grid (m-major) through RunAll, then the open-loop run of
// every cell at the throughput its batch achieved, then the reduction.
func correlateOpenBatch(t *testing.T, ms []int, labels []string, variants []NetworkParams, b int, worstCase bool, o OpenLoopOpts) Correlation {
	t.Helper()
	var batch []ExperimentSpec
	for _, m := range ms {
		for _, p := range variants {
			batch = append(batch, ExperimentSpec{Kind: "batch", Network: p, B: b, M: m})
		}
	}
	var rs RunSet
	bres, err := rs.RunAll(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	open := make([]ExperimentSpec, len(batch))
	for i, r := range bres {
		open[i] = ExperimentSpec{Kind: "openloop", Network: batch[i].Network, Rate: r.Batch.Throughput,
			Warmup: o.Warmup, Measure: o.Measure, DrainLimit: o.DrainLimit}
	}
	ores, err := rs.RunAll(context.Background(), open)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := CorrelateOpenBatch(ms, labels, bres, ores, worstCase)
	if err != nil {
		t.Fatal(err)
	}
	return corr
}

func routerDelays(trs ...int64) []NetworkParams {
	out := make([]NetworkParams, len(trs))
	for i, tr := range trs {
		out[i] = Baseline()
		out[i].RouterDelay = tr
	}
	return out
}

func TestCorrelateOpenBatchRouterDelay(t *testing.T) {
	// The paper's central result at small scale: across tr, batch and
	// open-loop measurements correlate almost perfectly for m <= 8.
	labels := []string{"tr=1", "tr=2", "tr=4"}
	corr := correlateOpenBatch(t, []int{1, 4}, labels, routerDelays(1, 2, 4), 200, false, OpenLoopOpts{})
	if len(corr.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(corr.Pairs))
	}
	if corr.Coefficient < 0.95 {
		t.Errorf("tr correlation = %.4f, want > 0.95 (paper: 0.9953)", corr.Coefficient)
	}
	// Zero OpenLoopOpts means the default phases of the paper figures: the
	// fixture holds what the procedure returned for these inputs before it
	// took options.
	data, err := os.ReadFile("testdata/correlate_open_batch_tr.json")
	if err != nil {
		t.Fatal(err)
	}
	var want Correlation
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(corr, want) {
		t.Errorf("correlation moved:\n got %+v\nwant %+v", corr, want)
	}
}

// Shortened phases reach the open-loop half of every cell: the golden
// gate's scale must not silently fall back to the defaults.
func TestCorrelateOpenBatchHonoursOpts(t *testing.T) {
	labels := []string{"tr=1", "tr=2"}
	variants := routerDelays(1, 2)
	short := OpenLoopOpts{Warmup: 500, Measure: 1000, DrainLimit: 20000}
	got := correlateOpenBatch(t, []int{4}, labels, variants, 100, false, short)
	var lat [2]float64 // the two cells rerun by hand, open-loop at the short phases
	for i := range lat {
		res, err := runSpec(context.Background(), ExperimentSpec{Kind: "batch", Network: variants[i], B: 100, M: 4})
		if err != nil {
			t.Fatal(err)
		}
		ol, err := runSpec(context.Background(), openLoopSpec(variants[i], res.Batch.Throughput, short))
		if err != nil {
			t.Fatal(err)
		}
		lat[i] = ol.OpenLoop.AvgLatency
	}
	if want := lat[1] / lat[0]; got.Pairs[1].X != want {
		t.Errorf("tr=2 normalized latency = %v, want %v from the short-phase runs", got.Pairs[1].X, want)
	}
}

func TestTable2Network(t *testing.T) {
	p := Table2Network(4)
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topo.N != 16 || cfg.Router.VCs != 8 || cfg.Router.BufDepth != 4 || cfg.Router.Delay != 4 {
		t.Errorf("Table II network drifted: %+v", cfg.Router)
	}
}

func TestExecRunsOnRealAndIdealNetwork(t *testing.T) {
	real, err := Exec(Table2Network(1), ExecParams{Benchmark: "blackscholes", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Exec(NetworkParams{}, ExecParams{Benchmark: "blackscholes", Ideal: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Cycles >= real.Cycles {
		t.Errorf("ideal %d cycles not faster than real %d", ideal.Cycles, real.Cycles)
	}
	if _, err := Exec(Baseline(), ExecParams{Benchmark: "lu"}); err == nil {
		t.Error("64-node network accepted for a 16-tile CMP")
	}
	if _, err := Exec(Table2Network(1), ExecParams{Benchmark: "quake"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCharacterizeProducesUsableModel(t *testing.T) {
	m, err := Characterize("lu", workload.Clock75MHz, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.NAR <= 0 || m.NAR > 0.5 {
		t.Errorf("NAR = %v", m.NAR)
	}
	if m.L2Miss <= 0 || m.L2Miss >= 1 {
		t.Errorf("L2 miss = %v", m.L2Miss)
	}
	if m.StaticKernelFrac <= 0 {
		t.Error("no static kernel traffic measured")
	}
	if m.TimerPeriod <= 0 || m.TimerBatch < 1 {
		t.Errorf("timer model: period %d batch %d", m.TimerPeriod, m.TimerBatch)
	}

	// The derived parameters must produce runnable batch specs for every
	// variant, with the right knobs enabled, and building them must leave
	// the model as it was (a RunSet shares it between readers).
	before := *m
	for _, v := range []Variant{BA, BAInj, BARe, BAInjRe, BAInjReOS} {
		s := m.BatchSpec(50, 1, v)
		switch v {
		case BA:
			if s.NAR != 0 || s.Reply != nil || s.Kernel != nil {
				t.Errorf("BA has extras enabled: %+v", s)
			}
		case BAInjReOS:
			if s.NAR == 0 || s.Reply == nil || s.Kernel == nil {
				t.Errorf("BA_inj+re+OS missing pieces: %+v", s)
			}
		}
		s.Network = Table2Network(1)
		res, err := new(RunSet).RunAll(context.Background(), []ExperimentSpec{s})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !res[0].Batch.Completed {
			t.Errorf("%s batch did not complete", v)
		}
	}
	if !reflect.DeepEqual(*m, before) {
		t.Errorf("building batch specs changed the model: %+v, was %+v", *m, before)
	}
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		BA: "BA", BAInj: "BA_inj", BARe: "BA_re",
		BAInjRe: "BA_inj+re", BAInjReOS: "BA_inj+re+OS",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d -> %q, want %q", v, v.String(), s)
		}
	}
}

func TestExecAndBatchSweepsNormalize(t *testing.T) {
	trs := []int64{1, 4}
	var specs []ExperimentSpec
	for _, tr := range trs {
		specs = append(specs, ExperimentSpec{Kind: "exec", Network: Table2Network(tr), Benchmark: "fft",
			Clock: workload.Clock75MHz.SpecName(), Seed: 3})
	}
	for _, tr := range trs {
		specs = append(specs, ExperimentSpec{Kind: "batch", Network: Table2Network(tr), B: 100, M: 1})
	}
	res, err := new(RunSet).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := CorrelateExecBatch([]string{"fft"}, trs, res[:2], res[2:])
	if err != nil {
		t.Fatal(err)
	}
	en := []float64{corr.Pairs[0].X, corr.Pairs[1].X}
	if en[0] != 1 || en[1] <= 1 {
		t.Errorf("exec sweep = %v: want normalized rising runtimes", en)
	}
	bn := []float64{corr.Pairs[0].Y, corr.Pairs[1].Y}
	if bn[0] != 1 || bn[1] <= 1.5 {
		t.Errorf("batch sweep = %v: m=1 should track zero-load scaling", bn)
	}
}

func TestCorrelateExecBatchValidation(t *testing.T) {
	exec := &Result{Exec: &cmp.Result{Cycles: 100}}
	batch := &Result{Batch: &closedloop.BatchResult{Runtime: 100}}
	_, err := CorrelateExecBatch([]string{"x"}, []int64{1, 2},
		[]*Result{exec}, []*Result{batch, batch})
	if err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBatchParamsUseMeasuredReplyModel(t *testing.T) {
	m := &BenchmarkModel{Name: "x", NAR: 0.1, L2Miss: 0.25}
	reply, err := m.BatchSpec(100, 2, BARe).Reply.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := reply.(closedloop.ProbabilisticReply)
	if !ok {
		t.Fatalf("reply model is %T", reply)
	}
	if pr.MissRate != 0.25 || pr.L2Latency != 20 || pr.MemoryLatency != 300 {
		t.Errorf("reply model = %+v", pr)
	}
}
