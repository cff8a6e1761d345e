package closedloop

import (
	"math"
	"testing"

	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

func meshConfig(tr int64, q int) network.Config {
	return network.Config{
		Topo:    topology.NewMesh(8, 8),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: q, Delay: tr},
		Seed:    42,
	}
}

func smallMeshConfig() network.Config {
	return network.Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 8, Delay: 1},
		Seed:    42,
	}
}

func TestBatchCompletesAndCounts(t *testing.T) {
	res, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 50, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("batch did not complete")
	}
	// 16 nodes x 50 transactions x (request + reply) packets.
	if want := int64(16 * 50 * 2); res.TotalPackets != want {
		t.Errorf("total packets = %d, want %d", res.TotalPackets, want)
	}
	if res.KernelPackets != 0 {
		t.Errorf("kernel packets = %d, want 0 without kernel model", res.KernelPackets)
	}
	if res.Runtime <= 0 {
		t.Error("runtime not positive")
	}
	for i, f := range res.NodeFinish {
		if f <= 0 || f > res.Runtime {
			t.Errorf("node %d finish %d outside (0, %d]", i, f, res.Runtime)
		}
	}
}

func TestHigherMLowersRuntime(t *testing.T) {
	// Fig 2/Fig 4: more outstanding requests overlap latency and cut
	// runtime, saturating at the network's throughput limit.
	var prev int64
	for i, m := range []int{1, 4, 16} {
		res, err := RunBatch(BatchConfig{Net: meshConfig(1, 16), B: 200, M: m, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("m=%d did not complete", m)
		}
		if i > 0 && res.Runtime >= prev {
			t.Errorf("runtime did not drop: m=%d gave %d, previous %d", m, res.Runtime, prev)
		}
		prev = res.Runtime
	}
}

func TestRouterDelayScalesRuntimeAtLowM(t *testing.T) {
	// §III-B: at m=1 runtime follows zero-load latency, so tr=2 costs
	// ~1.5x and tr=4 ~2.5x.
	runtimes := map[int64]int64{}
	for _, tr := range []int64{1, 2, 4} {
		res, err := RunBatch(BatchConfig{Net: meshConfig(tr, 16), B: 300, M: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		runtimes[tr] = res.Runtime
	}
	r2 := float64(runtimes[2]) / float64(runtimes[1])
	r4 := float64(runtimes[4]) / float64(runtimes[1])
	if r2 < 1.3 || r2 > 1.7 {
		t.Errorf("tr=2 runtime ratio = %.3f, want ~1.5", r2)
	}
	if r4 < 2.2 || r4 > 2.8 {
		t.Errorf("tr=4 runtime ratio = %.3f, want ~2.5", r4)
	}
}

func TestRouterDelayIrrelevantAtHighM(t *testing.T) {
	// §III-B: at high m the run is throughput-bound and tr barely matters.
	r1, err := RunBatch(BatchConfig{Net: meshConfig(1, 16), B: 500, M: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunBatch(BatchConfig{Net: meshConfig(4, 16), B: 500, M: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r4.Runtime) / float64(r1.Runtime)
	if ratio > 1.3 {
		t.Errorf("tr=4/tr=1 runtime ratio at m=32 = %.3f, want near 1", ratio)
	}
}

func TestNARThrottlesThroughput(t *testing.T) {
	// Fig 16: a low network access rate caps the injection rate and hides
	// network differences.
	full, err := RunBatch(BatchConfig{Net: meshConfig(1, 16), B: 200, M: 4, NAR: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunBatch(BatchConfig{Net: meshConfig(1, 16), B: 200, M: 4, NAR: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Runtime < 2*full.Runtime {
		t.Errorf("NAR=0.05 runtime %d not much larger than NAR=1 runtime %d", slow.Runtime, full.Runtime)
	}
	if slow.Throughput >= full.Throughput {
		t.Errorf("NAR=0.05 throughput %.3f not below NAR=1 %.3f", slow.Throughput, full.Throughput)
	}
}

func TestReplyLatencyDominatesRouterDelay(t *testing.T) {
	// Fig 17: with a 300-cycle memory in the loop, doubling tr hardly
	// changes runtime.
	base := BatchConfig{Net: meshConfig(1, 16), B: 100, M: 1, Reply: FixedReply{Latency: 300}, Seed: 6}
	slow := BatchConfig{Net: meshConfig(4, 16), B: 100, M: 1, Reply: FixedReply{Latency: 300}, Seed: 6}
	rb, err := RunBatch(base)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunBatch(slow)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rs.Runtime) / float64(rb.Runtime)
	if ratio > 1.25 {
		t.Errorf("tr=4/tr=1 ratio with 300-cycle memory = %.3f, want close to 1", ratio)
	}
}

func TestProbabilisticReplyMeanMatches(t *testing.T) {
	p := ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 0.1}
	if got, want := p.Mean(), 50.0; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Same mean latency, but the long-tail model (Fig 17c vs 17b) yields a
	// different runtime distribution; both must simply complete here.
	res, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 100, M: 2, Reply: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Error("probabilistic reply run did not complete")
	}
}

func TestKernelModelAddsTraffic(t *testing.T) {
	res, err := RunBatch(BatchConfig{
		Net: smallMeshConfig(),
		B:   100, M: 2,
		Kernel: &KernelConfig{StaticFraction: 0.5, TimerPeriod: 200, TimerBatch: 2, KernelNAR: 0.3},
		Seed:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("kernel run did not complete")
	}
	if res.KernelPackets == 0 {
		t.Error("kernel model produced no kernel packets")
	}
	// Static fraction alone guarantees >= 50 kernel transactions per node.
	if res.KernelPackets < int64(16*50*2) {
		t.Errorf("kernel packets = %d, want >= %d from static fraction", res.KernelPackets, 16*50*2)
	}
	base, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 100, M: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= base.Runtime {
		t.Errorf("kernel traffic did not extend runtime: %d vs base %d", res.Runtime, base.Runtime)
	}
}

func TestTimerTrafficScalesWithRuntime(t *testing.T) {
	// Slowing the cores (low NAR) lengthens the run, so a fixed timer
	// period must contribute proportionally more kernel packets (§V).
	mk := func(nar float64) *BatchResult {
		res, err := RunBatch(BatchConfig{
			Net: smallMeshConfig(),
			B:   100, M: 1, NAR: nar,
			Kernel: &KernelConfig{TimerPeriod: 300, TimerBatch: 1},
			Seed:   9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := mk(1)
	slow := mk(0.1)
	if slow.Runtime <= fast.Runtime {
		t.Fatal("NAR=0.1 should run longer")
	}
	fastFrac := float64(fast.KernelFlits) / float64(fast.TotalFlits)
	slowFrac := float64(slow.KernelFlits) / float64(slow.TotalFlits)
	if slowFrac <= fastFrac {
		t.Errorf("kernel share did not grow with runtime: fast %.3f, slow %.3f", fastFrac, slowFrac)
	}
}

func TestTimelineAndMatrixCollection(t *testing.T) {
	res, err := RunBatch(BatchConfig{
		Net: smallMeshConfig(),
		B:   100, M: 2,
		SampleInterval: 100,
		CollectMatrix:  true,
		Pattern:        traffic.UniformNoSelf{},
		Seed:           10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 2 {
		t.Errorf("timeline has %d samples, want >= 2", len(res.Timeline))
	}
	if res.Matrix == nil {
		t.Fatal("matrix not collected")
	}
	var sum float64
	for _, v := range res.Matrix.Cells {
		sum += v
	}
	if int64(sum) != res.TotalFlits {
		t.Errorf("matrix sums to %v flits, want %d", sum, res.TotalFlits)
	}
	for i := 0; i < 16; i++ {
		if res.Matrix.At(i, i) != 0 {
			t.Errorf("self traffic in matrix at node %d with no-self pattern", i)
		}
	}
}

func TestBarrierModelMeasuresThroughput(t *testing.T) {
	res, err := RunBarrier(BarrierConfig{Net: meshConfig(1, 16), B: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("barrier run did not complete")
	}
	// The barrier model drives the network to saturation: throughput should
	// approach the mesh's ~0.42 flits/cycle/node uniform-random capacity.
	if res.Throughput < 0.3 || res.Throughput > 0.55 {
		t.Errorf("barrier throughput = %.3f, want ~0.35-0.50", res.Throughput)
	}
}

func TestBarrierPhases(t *testing.T) {
	res, err := RunBarrier(BarrierConfig{Net: smallMeshConfig(), B: 100, Phases: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseRuntime) != 3 {
		t.Fatalf("got %d phase runtimes, want 3", len(res.PhaseRuntime))
	}
	var sum int64
	for _, p := range res.PhaseRuntime {
		if p <= 0 {
			t.Error("non-positive phase runtime")
		}
		sum += p
	}
	if sum != res.Runtime {
		t.Errorf("phase runtimes sum to %d, total %d", sum, res.Runtime)
	}
}

func TestBatchValidation(t *testing.T) {
	if _, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 0, M: 1}); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 1, M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := RunBarrier(BarrierConfig{Net: smallMeshConfig(), B: 0}); err == nil {
		t.Error("barrier B=0 accepted")
	}
	// A negative phase count can never equal the driver's phase counter:
	// unchecked, the run spins to MaxCycles (bounded here so that shows up
	// as a missing error, not a hung test).
	if _, err := RunBarrier(BarrierConfig{Net: smallMeshConfig(), B: 10, Phases: -1, MaxCycles: 10_000}); err == nil {
		t.Error("barrier Phases=-1 accepted")
	}
}

// TestCheckReply: RunBatch refuses the reply models it cannot run, with
// CheckReply's text, and the latency bound is the run's own cycle limit.
func TestCheckReply(t *testing.T) {
	const limit = "(the run's cycle limit)"
	for _, tc := range []struct {
		name      string
		reply     ReplyModel
		maxCycles int64
		want      string // "" = accepted
	}{
		{"nil", nil, 0, ""},
		{"immediate", ImmediateReply{}, 0, ""},
		{"fixed", FixedReply{Latency: 20000}, 0, ""},
		{"fixed at the default limit", FixedReply{Latency: 50_000_000}, 0, ""},
		{"fixed beyond the default limit", FixedReply{Latency: 50_000_001}, 0,
			"closedloop: reply latency 50000001 outside [0, 50000000] " + limit},
		{"fixed within a longer run", FixedReply{Latency: 60_000_000}, 80_000_000, ""},
		{"fixed beyond a shorter run", FixedReply{Latency: 20000}, 10_000,
			"closedloop: reply latency 20000 outside [0, 10000] " + limit},
		{"fixed negative", FixedReply{Latency: -100}, 0,
			"closedloop: reply latency -100 outside [0, 50000000] " + limit},
		{"fixed overflowing", FixedReply{Latency: math.MaxInt64}, 0,
			"closedloop: reply latency 9223372036854775807 outside [0, 50000000] " + limit},
		{"fixed overflowing an unbounded run", FixedReply{Latency: math.MaxInt64}, math.MaxInt64,
			"closedloop: reply latency 9223372036854775807 outside [0, 2305843009213693951] " + limit},
		{"probabilistic", ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 0.1}, 0, ""},
		{"probabilistic always missing", ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 1}, 0, ""},
		{"probabilistic negative L2", ProbabilisticReply{L2Latency: -20, MemoryLatency: -300, MissRate: -0.5}, 0,
			"closedloop: reply L2 latency -20 outside [0, 50000000] " + limit},
		{"probabilistic negative memory", ProbabilisticReply{L2Latency: 20, MemoryLatency: -300, MissRate: 0.1}, 0,
			"closedloop: reply memory latency -300 outside [0, 50000000] " + limit},
		{"probabilistic miss rate above one", ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 1.5}, 0,
			"closedloop: reply miss rate 1.5 outside [0, 1]"},
		{"probabilistic miss rate NaN", ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: math.NaN()}, 0,
			"closedloop: reply miss rate NaN outside [0, 1]"},
	} {
		got := ""
		if err := CheckReply(tc.reply, tc.maxCycles); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: CheckReply = %q, want %q", tc.name, got, tc.want)
		}
		if tc.want == "" {
			continue
		}
		_, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 10, M: 1, Reply: tc.reply, MaxCycles: tc.maxCycles})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: RunBatch = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckKernel: RunBatch refuses the OS-traffic models it cannot run,
// with CheckKernel's text.
func TestCheckKernel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kernel *KernelConfig
		want   string // "" = accepted
	}{
		{"nil", nil, ""},
		{"zero", &KernelConfig{}, ""},
		{"static and timer", &KernelConfig{StaticFraction: 0.1, TimerPeriod: 500, TimerBatch: 2, KernelNAR: 0.05}, ""},
		{"static at the bound", &KernelConfig{StaticFraction: math.MaxInt32 / 10.0}, ""},
		{"static overflowing", &KernelConfig{StaticFraction: 1e300},
			"closedloop: kernel static fraction 1e+300 of batch size 10 is 1e+301 transactions a node, more than 2147483647"},
		{"static negative", &KernelConfig{StaticFraction: -0.5},
			"closedloop: kernel static fraction must be >= 0, got -0.5"},
		{"static NaN", &KernelConfig{StaticFraction: math.NaN()},
			"closedloop: kernel static fraction must be >= 0, got NaN"},
		{"NAR negative", &KernelConfig{KernelNAR: -0.1},
			"closedloop: kernel NAR must be >= 0, got -0.1"},
		{"timer period negative", &KernelConfig{TimerPeriod: -500, TimerBatch: 2},
			"closedloop: kernel timer period must be >= 0 cycles (0 = no timer), got -500"},
		{"timer batch negative", &KernelConfig{TimerPeriod: 500, TimerBatch: -3},
			"closedloop: kernel timer batch -3 outside [0, 2147483647]"},
		{"timer batch overflowing", &KernelConfig{TimerPeriod: 500, TimerBatch: math.MaxInt32 + 1},
			"closedloop: kernel timer batch 2147483648 outside [0, 2147483647]"},
	} {
		got := ""
		if err := CheckKernel(tc.kernel, 10); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: CheckKernel = %q, want %q", tc.name, got, tc.want)
		}
		if tc.want == "" {
			continue
		}
		_, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 10, M: 1, Kernel: tc.kernel})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: RunBatch = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestThroughputDefinitionsAgree(t *testing.T) {
	// With 1-flit requests and replies, total flits = 2*B*N, so the two
	// throughput definitions coincide.
	res, err := RunBatch(BatchConfig{Net: smallMeshConfig(), B: 200, M: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	diff := res.Throughput - res.ReqThroughput
	if diff < -1e-9 || diff > 1e-9 {
		t.Errorf("throughput %.6f != req throughput %.6f", res.Throughput, res.ReqThroughput)
	}
}
