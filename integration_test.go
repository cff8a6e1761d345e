package noceval

// Cross-methodology integration tests: each one exercises a relationship
// the paper depends on, across module boundaries (network + openloop +
// closedloop + trace + cmp + core + analytic).

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"noceval/internal/analytic"
	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/trace"
	"noceval/internal/traffic"
	"noceval/internal/workload"
)

func TestOpenLoopMatchesAnalyticZeroLoad(t *testing.T) {
	p := core.Baseline()
	sim, err := core.OpenLoopWith(p, 0.01, core.OpenLoopOpts{})
	if err != nil {
		t.Fatal(err)
	}
	model := analytic.Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	want, err := model.ZeroLoadLatency(traffic.Uniform{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// At 1% load queueing is negligible: simulation within 10% of theory.
	if sim.AvgLatency < want*0.9 || sim.AvgLatency > want*1.15 {
		t.Errorf("simulated zero-load %.2f vs analytic %.2f", sim.AvgLatency, want)
	}
}

func TestSimulatedSaturationBelowChannelBound(t *testing.T) {
	model := analytic.Model{Topo: topology.NewMesh(8, 8), Routing: routing.DOR{}, RouterDelay: 1}
	bound, _, err := model.ChannelBound(traffic.Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Baseline()
	res, err := core.OpenLoopWith(p, 0.9, core.OpenLoopOpts{}) // overload: accepted = capacity
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted > bound*1.02 {
		t.Errorf("accepted %.3f exceeds channel bound %.3f", res.Accepted, bound)
	}
	if res.Accepted < bound*0.6 {
		t.Errorf("accepted %.3f implausibly far below channel bound %.3f", res.Accepted, bound)
	}
}

func TestBatchThroughputAtLargeMMatchesCapacity(t *testing.T) {
	p := core.Baseline()
	bat, err := core.Batch(p, core.BatchParams{B: 400, M: 32})
	if err != nil {
		t.Fatal(err)
	}
	over, err := core.OpenLoopWith(p, 0.9, core.OpenLoopOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := bat.Throughput / over.Accepted
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("batch m=32 throughput %.3f vs open-loop capacity %.3f (ratio %.2f)",
			bat.Throughput, over.Accepted, ratio)
	}
}

func TestTraceCapturedFromBatchReplaysConsistently(t *testing.T) {
	// Capture a batch-model run, serialize the trace, replay it on the
	// same network: the replay must deliver every packet in a comparable
	// time (it has no request/reply dependencies, so it can only be
	// faster or equal in the aggregate).
	netCfg := network.Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 8, Delay: 1},
		Seed:    31,
	}
	net := network.New(netCfg)
	rec := trace.NewRecorder(16)
	rec.Attach(net)

	// Drive a miniature batch workload by hand on the recorded network.
	rng := net.RNG()
	type nodeState struct{ sent, done, pf int }
	nodes := make([]nodeState, 16)
	net.OnReceive = func(now int64, pkt *router.Packet) {
		if pkt.Kind == router.KindRequest {
			reply := net.NewPacket(pkt.Dst, pkt.Src, 1, router.KindReply)
			net.Send(reply)
		} else if pkt.Kind == router.KindReply {
			nodes[pkt.Dst].pf--
			nodes[pkt.Dst].done++
		}
	}
	const b, m = 60, 2
	for done := 0; done < 16; {
		done = 0
		for i := range nodes {
			st := &nodes[i]
			if st.sent < b && st.pf < m {
				net.Send(net.NewPacket(i, rng.Intn(16), 1, router.KindRequest))
				st.sent++
				st.pf++
			}
			if st.done >= b {
				done++
			}
		}
		net.Step()
	}
	captured := rec.Trace()
	wantPackets := 16 * b * 2
	if len(captured.Events) != wantPackets {
		t.Fatalf("captured %d events, want %d", len(captured.Events), wantPackets)
	}

	var buf bytes.Buffer
	if err := captured.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(loaded, netCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Packets != wantPackets {
		t.Fatalf("replay delivered %d/%d packets", res.Packets, wantPackets)
	}
	if res.Runtime > net.Now()*2 {
		t.Errorf("replay runtime %d far beyond closed-loop runtime %d", res.Runtime, net.Now())
	}
}

// trGrid lists cell(i), a spec for benchmark i, on the Table II network
// at every delay of trs, benchmark-major as core.CorrelateExecBatch reads
// it; n is the benchmark count.
func trGrid(n int, trs []int64, cell func(i int) core.ExperimentSpec) []core.ExperimentSpec {
	var specs []core.ExperimentSpec
	for i := 0; i < n; i++ {
		for _, tr := range trs {
			s := cell(i)
			s.Network = core.Table2Network(tr)
			specs = append(specs, s)
		}
	}
	return specs
}

// execSpec is the exec run of bench at 75 MHz (the zero ExecParams
// clock), without the timer.
func execSpec(bench string, seed uint64) core.ExperimentSpec {
	return core.ExperimentSpec{Kind: "exec", Benchmark: bench, Clock: workload.Clock75MHz.SpecName(), Seed: seed}
}

// runSpecs simulates specs through rs, failing tb on an error or on a
// batch run that did not complete.
func runSpecs(tb testing.TB, rs *core.RunSet, specs []core.ExperimentSpec) []*core.Result {
	tb.Helper()
	res, err := rs.RunAll(context.Background(), specs)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range res {
		if r.Batch != nil && !r.Batch.Completed {
			tb.Fatal("batch did not complete")
		}
	}
	return res
}

func TestBatchModelPredictsExecDirection(t *testing.T) {
	// Both methodologies must agree that tr=8 is slower than tr=1.
	trs := []int64{1, 8}
	res := runSpecs(t, new(core.RunSet), slices.Concat(
		trGrid(1, trs, func(int) core.ExperimentSpec { return execSpec("canneal", 9) }),
		trGrid(1, trs, func(int) core.ExperimentSpec { return core.ExperimentSpec{Kind: "batch", B: 150, M: 1} })))
	execNorm := float64(res[1].Exec.Cycles) / float64(res[0].Exec.Cycles)
	batchNorm := float64(res[3].Batch.Runtime) / float64(res[2].Batch.Runtime)
	if execNorm <= 1 || batchNorm <= 1 {
		t.Errorf("tr=8 not slower: exec %.3f, batch %.3f", execNorm, batchNorm)
	}
	// The plain batch model overstates the network's influence (the
	// paper's core observation motivating the enhancements).
	if batchNorm < execNorm {
		t.Errorf("baseline batch (%.2fx) should overstate exec slowdown (%.2fx)",
			batchNorm, execNorm)
	}
}

func TestEnhancedModelTracksExecBetterThanBaseline(t *testing.T) {
	benches := []string{"blackscholes", "fft"}
	trs := []int64{1, 2, 4, 8}
	var rs core.RunSet
	exec := trGrid(len(benches), trs, func(i int) core.ExperimentSpec { return execSpec(benches[i], 9) })
	var chars []core.ExperimentSpec
	for _, bench := range benches {
		chars = append(chars, core.ExperimentSpec{Kind: "characterize", Network: core.Baseline(), Benchmark: bench,
			Clock: workload.Clock3GHz.SpecName(), Seed: 9})
	}
	res := runSpecs(t, &rs, slices.Concat(exec, chars))
	execRes, models := res[:len(exec)], res[len(exec):]
	baseline := runSpecs(t, &rs, trGrid(len(benches), trs, func(int) core.ExperimentSpec {
		return core.ExperimentSpec{Kind: "batch", B: 150, M: 1}
	}))
	enhanced := runSpecs(t, &rs, trGrid(len(benches), trs, func(i int) core.ExperimentSpec {
		return models[i].Model.BatchSpec(150, 1, core.BAInjRe)
	}))
	// Mean absolute error of the predictions, which is the quantity the
	// enhancements actually shrink (correlation is scale-blind).
	mae := func(batch []*core.Result) float64 {
		corr, err := core.CorrelateExecBatch(benches, trs, execRes, batch)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, pt := range corr.Pairs {
			sum += math.Abs(pt.Y - pt.X)
		}
		return sum / float64(len(corr.Pairs))
	}
	if mae(enhanced) >= mae(baseline) {
		t.Errorf("enhanced model MAE %.3f not below baseline %.3f", mae(enhanced), mae(baseline))
	}
}

func TestKernelShareGrowsAtLowClock(t *testing.T) {
	share := func(clock workload.Clock) float64 {
		res, err := core.Exec(core.Table2Network(1), core.ExecParams{
			Benchmark: "lu", Clock: clock, Timer: true, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.KernelFlits) / float64(res.TotalFlits)
	}
	slow := share(workload.Clock75MHz)
	fast := share(workload.Clock3GHz)
	if slow <= fast {
		t.Errorf("kernel share at 75MHz (%.3f) not above 3GHz (%.3f)", slow, fast)
	}
}

func TestBarrierAndBatchAgreeOnThroughput(t *testing.T) {
	netCfg := core.Baseline()
	bar, err := core.Barrier(netCfg, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := core.Batch(netCfg, core.BatchParams{B: 300, M: 32})
	if err != nil {
		t.Fatal(err)
	}
	ratio := bar.Throughput / bat.Throughput
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("barrier %.3f vs batch m=32 %.3f (ratio %.2f)", bar.Throughput, bat.Throughput, ratio)
	}
}

func TestReplyModelShiftsBatchTowardMemoryBound(t *testing.T) {
	p := core.Baseline()
	noMem, err := core.Batch(p, core.BatchParams{B: 150, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	withMem, err := core.Batch(p, core.BatchParams{
		B: 150, M: 1,
		Reply: closedloop.ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mean added delay is 50 cycles per transaction; runtime grows by
	// roughly B * 50 per node.
	added := withMem.Runtime - noMem.Runtime
	if added < 150*30 || added > 150*80 {
		t.Errorf("memory model added %d cycles, want ~%d", added, 150*50)
	}
}
