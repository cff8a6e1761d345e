package cmp_test

import (
	"testing"

	"noceval/internal/cmp"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/workload"
)

// table2Net builds the Table II network: 4x4 mesh, DOR, 8 VCs, 4 buf/VC.
func table2Net(tr int64, seed uint64) cmp.Fabric {
	return cmp.NetFabric{Network: network.New(network.Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 8, BufDepth: 4, Delay: tr},
		Seed:    seed,
	})}
}

func shortProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	p.UserInsts = 8000
	p.SyscallStartInsts /= 4
	p.SyscallEndInsts /= 4
	return p
}

func runSystem(t *testing.T, p workload.Profile, fab cmp.Fabric, cfg cmp.Config) *cmp.Result {
	t.Helper()
	sys, err := cmp.NewSystem(cfg, fab, workload.Programs(p, cfg.Tiles, 99))
	if err != nil {
		t.Fatal(err)
	}
	p.Warm(sys, cfg.Tiles)
	res := sys.Run()
	if !res.Completed {
		t.Fatalf("%s did not complete in %d cycles", p.Name, res.Cycles)
	}
	if n := sys.DeferredLines(); n != 0 {
		t.Errorf("%s: %d lines still hold deferred requests after the run", p.Name, n)
	}
	return res
}

// TestDeferredTableDrainsOnCanneal runs full canneal at 75 MHz, the most
// contended exec run: every request deferred behind a busy line is served,
// and the side table that held it is empty again.
func TestDeferredTableDrainsOnCanneal(t *testing.T) {
	p, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cmp.DefaultConfig()
	cfg.TimerPeriod = p.TimerPeriod(workload.Clock75MHz)
	cfg.TimerHandlerInsts = p.TimerHandlerInsts
	runSystem(t, p, table2Net(2, 1), cfg)
}

func TestAllBenchmarksCompleteOnRealNetwork(t *testing.T) {
	for _, wp := range workload.All() {
		name := wp.Name
		p := shortProfile(name)
		cfg := cmp.DefaultConfig()
		cfg.MaxCycles = 20_000_000
		res := runSystem(t, p, table2Net(1, 5), cfg)
		if res.UserInsts < int64(cfg.Tiles)*p.UserInsts {
			t.Errorf("%s: user insts %d below budget %d", name, res.UserInsts, int64(cfg.Tiles)*p.UserInsts)
		}
		if res.TotalFlits == 0 {
			t.Errorf("%s: no network traffic", name)
		}
		if res.NAR <= 0 || res.NAR > 1 {
			t.Errorf("%s: NAR = %.4f out of range", name, res.NAR)
		}
	}
}

func TestIdealFabricFasterThanRealNetwork(t *testing.T) {
	p := shortProfile("canneal")
	cfg := cmp.DefaultConfig()
	real := runSystem(t, p, table2Net(1, 6), cfg)
	ideal := runSystem(t, p, cmp.NewIdealFabric(), cfg)
	if ideal.Cycles >= real.Cycles {
		t.Errorf("ideal network (%d cycles) not faster than real (%d)", ideal.Cycles, real.Cycles)
	}
}

func TestRouterDelaySlowsExecution(t *testing.T) {
	p := shortProfile("fft")
	cfg := cmp.DefaultConfig()
	r1 := runSystem(t, p, table2Net(1, 7), cfg)
	r8 := runSystem(t, p, table2Net(8, 7), cfg)
	if r8.Cycles <= r1.Cycles {
		t.Errorf("tr=8 (%d cycles) not slower than tr=1 (%d)", r8.Cycles, r1.Cycles)
	}
}

func TestKernelTrafficAppears(t *testing.T) {
	p := shortProfile("lu")
	cfg := cmp.DefaultConfig()
	cfg.TimerPeriod = p.TimerPeriod(workload.Clock75MHz)
	cfg.TimerHandlerInsts = p.TimerHandlerInsts
	res := runSystem(t, p, table2Net(1, 8), cfg)
	if res.KernelFlits == 0 {
		t.Fatal("no kernel traffic despite syscalls and timer")
	}
	frac := float64(res.KernelFlits) / float64(res.TotalFlits)
	if frac <= 0 || frac >= 1 {
		t.Errorf("kernel traffic fraction = %.3f out of (0,1)", frac)
	}
}

func TestClockFrequencyChangesInterruptCount(t *testing.T) {
	p := shortProfile("lu") // shortest timer period in the suite
	p.UserInsts = 30000
	mk := func(c workload.Clock) *cmp.Result {
		cfg := cmp.DefaultConfig()
		cfg.TimerPeriod = p.TimerPeriod(c)
		cfg.TimerHandlerInsts = p.TimerHandlerInsts
		return runSystem(t, p, table2Net(1, 9), cfg)
	}
	slow := mk(workload.Clock75MHz)
	fast := mk(workload.Clock3GHz)
	if slow.TimerInterrupts <= fast.TimerInterrupts {
		t.Errorf("75MHz interrupts (%d) not above 3GHz (%d)", slow.TimerInterrupts, fast.TimerInterrupts)
	}
}

func TestBarriersSynchronize(t *testing.T) {
	p := shortProfile("fft") // 3 barriers
	cfg := cmp.DefaultConfig()
	res := runSystem(t, p, table2Net(1, 10), cfg)
	if res.BarrierEpisodes != int64(p.Barriers) {
		t.Errorf("barrier episodes = %d, want %d", res.BarrierEpisodes, p.Barriers)
	}
}

func TestMissRateOrdering(t *testing.T) {
	// fft must show a much higher user L2 miss rate than blackscholes
	// (Table III: 0.629 vs 0.006); barnes the highest NAR.
	cfg := cmp.DefaultConfig()
	res := map[string]*cmp.Result{}
	for _, name := range []string{"blackscholes", "fft", "barnes"} {
		res[name] = runSystem(t, shortProfile(name), cmp.NewIdealFabric(), cfg)
	}
	if res["fft"].L2MissRate[0] < 3*res["blackscholes"].L2MissRate[0] {
		t.Errorf("fft L2 miss %.3f not >> blackscholes %.3f",
			res["fft"].L2MissRate[0], res["blackscholes"].L2MissRate[0])
	}
	// Kernel syscall traffic dominates very short runs, so compare the
	// user-attributed injection rate (Table IV orders barnes highest).
	if res["barnes"].UserNAR <= res["blackscholes"].UserNAR {
		t.Errorf("barnes user NAR %.4f not above blackscholes %.4f",
			res["barnes"].UserNAR, res["blackscholes"].UserNAR)
	}
}

func TestMatrixAndTimelineCollection(t *testing.T) {
	p := shortProfile("lu")
	cfg := cmp.DefaultConfig()
	cfg.CollectMatrix = true
	cfg.SampleInterval = 2000
	res := runSystem(t, p, table2Net(1, 11), cfg)
	if res.Matrix == nil {
		t.Fatal("no matrix")
	}
	var sum float64
	for _, v := range res.Matrix.Cells {
		sum += v
	}
	if int64(sum) != res.TotalFlits {
		t.Errorf("matrix total %v != flits %d", sum, res.TotalFlits)
	}
	if len(res.Timeline) < 3 {
		t.Errorf("timeline has %d buckets, want >= 3", len(res.Timeline))
	}
}

func TestCacheBasics(t *testing.T) {
	c := cmp.NewCache(1024, 2, 64) // 16 lines, 8 sets, 2 ways
	if c.Lookup(5) != cmp.Invalid {
		t.Fatal("empty cache hit")
	}
	c.Insert(5, cmp.Shared)
	if c.Lookup(5) != cmp.Shared {
		t.Fatal("inserted line missing")
	}
	// Fill the set of line 5 (same set every 8 lines) and force eviction.
	c.Insert(13, cmp.Modified)
	c.Lookup(13) // make 13 more recent than 5
	v := c.Insert(21, cmp.Shared)
	if v.State == cmp.Invalid {
		t.Fatal("expected an eviction")
	}
	if v.LineAddr != 5 {
		t.Errorf("evicted line %d, want LRU line 5", v.LineAddr)
	}
	c.SetState(13, cmp.Shared)
	if c.Probe(13) != cmp.Shared {
		t.Error("SetState did not apply")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { cmp.NewCache(0, 4, 64) },
		func() { cmp.NewCache(1024, 3, 64) },  // 16 lines not divisible by 3
		func() { cmp.NewCache(64*48, 4, 64) }, // 12 sets not a power of two
		func() { cmp.NewCache(1024, 4, 48) },  // line size not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry not rejected")
				}
			}()
			fn()
		}()
	}
}
