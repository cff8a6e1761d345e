package invariants_test

// The property-based harness of the fault subsystem: randomized fault
// configurations are pushed through every run methodology (open-loop,
// closed-loop batch and barrier, execution-driven CMP) on the sequential
// and the sharded cycle loop, and the invariant oracle checks the final
// network state of each run. A second set of tests pins the determinism
// contract (same seed + config => identical results at every shard count)
// and proves the oracle has teeth: a deliberately broken retransmission
// path must be caught.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/cmp"
	"noceval/internal/core"
	"noceval/internal/fault"
	"noceval/internal/fault/invariants"
	"noceval/internal/network"
	"noceval/internal/openloop"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
	"noceval/internal/traffic"
	"noceval/internal/workload"
)

// trialTopos are the fabrics the randomized trials draw from.
var trialTopos = []string{"mesh4x4", "ring8", "torus4x4"}

// randomFault draws one fault configuration. The recovery NIC is always
// on so lossy runs terminate by retransmission or abandonment instead of
// wedging; rates, schedule events, and retry knobs vary per trial.
func randomFault(rng *sim.RNG, topo *topology.Topology) *fault.Params {
	rates := []float64{0, 1e-3, 5e-3, 2e-2}
	p := &fault.Params{
		CorruptRate: rates[rng.Intn(len(rates))],
		DropRate:    rates[rng.Intn(len(rates))],
		Timeout:     200 + int64(rng.Intn(200)),
		MaxRetries:  []int{0, 2, 6}[rng.Intn(3)],
		RetryCap:    []int{0, 2}[rng.Intn(2)],
		Seed:        rng.Uint64(),
	}
	if rng.Bernoulli(0.5) {
		// A transient outage window on a random connected link.
		for tries := 0; tries < 8; tries++ {
			node, port := rng.Intn(topo.N), rng.Intn(topo.Radix)
			if topo.LinkAt(node, port).Connected() {
				from := int64(100 + rng.Intn(300))
				p.Outages = append(p.Outages, fault.Outage{
					Node: node, Port: port, From: from, Until: from + int64(50+rng.Intn(300)),
				})
				break
			}
		}
	}
	if rng.Bernoulli(0.3) {
		p.Kills = append(p.Kills, fault.Kill{Node: rng.Intn(topo.N), At: int64(200 + rng.Intn(400))})
	}
	return p
}

// trialNet builds the network config of one trial. The CI determinism
// matrix re-runs the whole harness at NOCEVAL_SHARDS 1, 2 and 4; the
// oracle must hold at any shard count.
func trialNet(t *testing.T, topoName string, seed uint64, fp *fault.Params) network.Config {
	t.Helper()
	return trialNetShards(t, topoName, seed, fp, core.EnvShards())
}

// trialNetShards is trialNet at an explicit shard count.
func trialNetShards(t *testing.T, topoName string, seed uint64, fp *fault.Params, shards int) network.Config {
	t.Helper()
	topo, err := topology.ByName(topoName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.Config{
		Topo:    topo,
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    seed,
		Fault:   fp,
		Shards:  shards,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("trial config invalid: %v", err)
	}
	return cfg
}

// checkInvariants returns an Inspect hook that runs the oracle and reports
// violations against the trial's label.
func checkInvariants(t *testing.T, label string) func(*network.Network) {
	return func(n *network.Network) {
		t.Helper()
		if err := invariants.Check(n); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// TestPropertyRandomizedConfigs is the harness: N random fault configs,
// each run through open-loop, batch, and barrier on the sequential loop and
// on a sharded one (NOCEVAL_SHARDS tiles, 2 when that is unset), with the
// oracle inspecting every final state and the two loops' results compared.
func TestPropertyRandomizedConfigs(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := sim.NewRNG(uint64(trial)*0x9e3779b97f4a7c15 + 1)
		topoName := trialTopos[rng.Intn(len(trialTopos))]
		topo, err := topology.ByName(topoName)
		if err != nil {
			t.Fatal(err)
		}
		fp := randomFault(rng, topo)
		seed := rng.Uint64()
		desc, _ := json.Marshal(fp)
		var results [2][3]any
		for i, shards := range []int{1, max(core.EnvShards(), 2)} {
			label := fmt.Sprintf("trial %d %s shards=%d fault=%s", trial, topoName, shards, desc)
			netCfg := trialNetShards(t, topoName, seed, fp, shards)

			results[i][0], err = openloop.Run(openloop.Config{
				Net: netCfg, Pattern: traffic.Uniform{}, Sizes: traffic.FixedSize(1),
				Rate: 0.1, Warmup: 500, Measure: 1000, DrainLimit: 400_000,
				Seed:    seed,
				Inspect: checkInvariants(t, label+" openloop"),
			})
			if err != nil {
				t.Errorf("%s openloop: %v", label, err)
			}

			results[i][1], err = closedloop.RunBatch(closedloop.BatchConfig{
				Net: netCfg, Pattern: traffic.Uniform{}, B: 30, M: 2,
				MaxCycles: 400_000, Seed: seed,
				Inspect: checkInvariants(t, label+" batch"),
			})
			if err != nil {
				t.Errorf("%s batch: %v", label, err)
			}

			results[i][2], err = closedloop.RunBarrier(closedloop.BarrierConfig{
				Net: netCfg, Pattern: traffic.Uniform{}, B: 20, Phases: 2,
				MaxCycles: 400_000, Seed: seed,
				Inspect: checkInvariants(t, label+" barrier"),
			})
			if err != nil {
				t.Errorf("%s barrier: %v", label, err)
			}
		}
		for m, mode := range []string{"openloop", "batch", "barrier"} {
			if !reflect.DeepEqual(results[0][m], results[1][m]) {
				t.Errorf("trial %d %s fault=%s: %s diverges across shard counts:\nsequential: %+v\nsharded:    %+v",
					trial, topoName, desc, mode, results[0][m], results[1][m])
			}
		}
	}
}

// TestExecModeInvariants runs the execution-driven CMP on a faulted fabric
// (corrupt + drop with generous retransmission, so the memory protocol
// never loses a transaction) and checks the oracle on the final network.
func TestExecModeInvariants(t *testing.T) {
	prof, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	prof.UserInsts = 4000
	prof.SyscallStartInsts /= 4
	prof.SyscallEndInsts /= 4

	cfg := cmp.DefaultConfig()
	cfg.MaxCycles = 20_000_000
	fab := cmp.NetFabric{Network: network.New(network.Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 8, BufDepth: 4, Delay: 1},
		Seed:    5,
		Fault: &fault.Params{
			CorruptRate: 1e-3, DropRate: 1e-3,
			Timeout: 400, MaxRetries: 20, Seed: 9,
		},
	})}
	sys, err := cmp.NewSystem(cfg, fab, workload.Programs(prof, cfg.Tiles, 99))
	if err != nil {
		t.Fatal(err)
	}
	prof.Warm(sys, cfg.Tiles)
	res := sys.Run()
	if !res.Completed {
		t.Fatalf("faulted exec run did not complete in %d cycles", res.Cycles)
	}
	if err := invariants.Check(fab.Network); err != nil {
		t.Error(err)
	}
	fs := fab.Network.FaultStats()
	if fs == nil || fs.CorruptInjected+fs.DropInjected == 0 {
		t.Error("exec run injected no faults; the trial is vacuous")
	}
}

// TestFaultedRunsDeterministic pins the reproducibility contract: the same
// seed and fault config produce identical results — counters, latencies,
// recovery stats — on the sequential cycle loop and with the network split
// into 2 and 4 tiles, and again when a run is repeated.
func TestFaultedRunsDeterministic(t *testing.T) {
	fp := &fault.Params{
		CorruptRate: 2e-3, DropRate: 2e-3,
		Outages: []fault.Outage{{Node: 5, Port: 0, From: 200, Until: 500}},
		Kills:   []fault.Kill{{Node: 11, At: 700}},
		Timeout: 250, MaxRetries: 3, RetryCap: 2, Seed: 42,
	}
	runOL := func(shards int) *openloop.Result {
		res, err := openloop.Run(openloop.Config{
			Net: trialNetShards(t, "mesh4x4", 7, fp, shards), Pattern: traffic.Uniform{},
			Sizes: traffic.FixedSize(1), Rate: 0.12,
			Warmup: 500, Measure: 1500, DrainLimit: 400_000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runBatch := func(shards int) *closedloop.BatchResult {
		res, err := closedloop.RunBatch(closedloop.BatchConfig{
			Net: trialNetShards(t, "mesh4x4", 7, fp, shards), Pattern: traffic.Uniform{},
			B: 40, M: 2, MaxCycles: 400_000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ol, batch := runOL(1), runBatch(1)
	if ol.Faults.Abandoned == 0 {
		t.Error("no transaction was abandoned; the comparison does not cover the NIC's give-up path")
	}
	for _, shards := range []int{2, 4} {
		if b := runOL(shards); !reflect.DeepEqual(ol, b) {
			t.Errorf("faulted openloop diverges at %d shards:\nsequential: %+v\nsharded:    %+v", shards, ol, b)
		}
		if b := runBatch(shards); !reflect.DeepEqual(batch, b) {
			t.Errorf("faulted batch diverges at %d shards:\nsequential: %+v\nsharded:    %+v", shards, batch, b)
		}
	}

	// And across repeated runs at one shard count.
	if b := runOL(1); !reflect.DeepEqual(ol, b) {
		t.Error("faulted openloop is not reproducible from its seed")
	}
}

// TestZeroFaultParamsEquivalent pins the compiled-out guarantee's semantic
// half: a nil fault config and a present-but-all-zero one produce
// identical results (the zero one never builds an injector at all).
func TestZeroFaultParamsEquivalent(t *testing.T) {
	run := func(fp *fault.Params) *openloop.Result {
		res, err := openloop.Run(openloop.Config{
			Net: trialNet(t, "mesh4x4", 3, fp), Pattern: traffic.Uniform{},
			Sizes: traffic.FixedSize(1), Rate: 0.15,
			Warmup: 500, Measure: 1000, DrainLimit: 100_000, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(nil), run(&fault.Params{}); !reflect.DeepEqual(a, b) {
		t.Errorf("zero-valued fault params change results:\nnil:  %+v\nzero: %+v", a, b)
	}
}

// driveToQuiescence sends traffic into a faulted network and steps until
// both the fabric and the NIC schedule drain (or the cycle cap passes).
func driveToQuiescence(t *testing.T, net *network.Network, packets int) {
	t.Helper()
	n := net.Nodes()
	for i := 0; i < packets; i++ {
		src := i % n
		net.Send(net.NewPacket(src, (src+1+i%(n-1))%n, 1, router.KindData))
	}
	for cycle := 0; cycle < 3_000_000; cycle++ {
		net.Step()
		if net.Quiescent() && net.NextInternalEventAt() < 0 {
			return
		}
	}
	t.Fatal("network did not drain")
}

// TestInvariantHarnessCatchesBrokenNIC is the mutation test: with the
// NIC's timeout path deliberately broken (entries silently vanish instead
// of retrying or abandoning), the oracle must report the NIC conservation
// violation. Every packet crosses a link with DropRate 1, so every
// transaction times out.
func TestInvariantHarnessCatchesBrokenNIC(t *testing.T) {
	fp := &fault.Params{DropRate: 1, Timeout: 100, MaxRetries: 1, Seed: 1}
	net := network.New(trialNet(t, "mesh4x4", 2, fp))
	net.NIC().BreakForTest()
	driveToQuiescence(t, net, 64)
	err := invariants.Check(net)
	if err == nil {
		t.Fatal("oracle passed a network whose NIC silently lost every packet")
	}
	if want := "NIC conservation violated"; !containsStr(err.Error(), want) {
		t.Errorf("oracle failed for the wrong reason: %v (want %q)", err, want)
	}
}

// TestHealthyNICPassesSameScenario is the mutation test's control: the
// identical total-loss scenario with a working NIC abandons every packet
// and satisfies all invariants.
func TestHealthyNICPassesSameScenario(t *testing.T) {
	fp := &fault.Params{DropRate: 1, Timeout: 100, MaxRetries: 1, Seed: 1}
	net := network.New(trialNet(t, "mesh4x4", 2, fp))
	driveToQuiescence(t, net, 64)
	if err := invariants.Check(net); err != nil {
		t.Error(err)
	}
	fs := net.FaultStats()
	if fs.Abandoned == 0 {
		t.Error("control scenario abandoned nothing; the mutation test is vacuous")
	}
	if fs.Tracked != fs.Acked+fs.Abandoned+int64(fs.Outstanding) {
		t.Errorf("NIC ledger unbalanced: %+v", fs)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
