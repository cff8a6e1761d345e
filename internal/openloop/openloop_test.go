package openloop

import (
	"errors"
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

func quick(cfg Config) Config {
	cfg.Warmup = 2000
	cfg.Measure = 4000
	cfg.DrainLimit = 30000
	return cfg
}

func TestLowLoadLatencyNearZeroLoad(t *testing.T) {
	res, err := Run(quick(Config{Net: meshConfig(1, 16), Rate: 0.02, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("low load should be stable")
	}
	// 8x8 mesh uniform: avg hops ~5.25, hop cost 2, ejection 1 -> ~11.5
	// cycles plus small queueing.
	if res.AvgLatency < 10 || res.AvgLatency > 16 {
		t.Errorf("zero-load latency = %.2f, want ~11-13", res.AvgLatency)
	}
	if res.AvgHops < 4.8 || res.AvgHops > 5.8 {
		t.Errorf("avg hops = %.2f, want ~5.25", res.AvgHops)
	}
}

// TestOfferedLoadIsFlitsPerCycle pins the unit of Rate: with bimodal
// packets (mean 2.5 flits) an offered load of 0.25 flits/cycle/node starts
// a packet at 0.1 per cycle per node, and a stable run accepts the rate.
func TestOfferedLoadIsFlitsPerCycle(t *testing.T) {
	cfg := quick(Config{Net: meshConfig(1, 16), Sizes: traffic.DefaultBimodal(), Rate: 0.25, Seed: 5})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("0.25 flits/cycle/node should be stable")
	}
	pkts := float64(res.MeasuredPackets) / float64(64*cfg.Measure)
	if pkts < 0.09 || pkts > 0.11 {
		t.Errorf("packet rate = %.4f per cycle per node, want ~0.1 (0.25 / 2.5)", pkts)
	}
	if res.Accepted < 0.23 || res.Accepted > 0.27 {
		t.Errorf("accepted = %.4f flits/cycle/node, want ~0.25", res.Accepted)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	var prev float64
	for i, rate := range []float64{0.05, 0.2, 0.35} {
		res, err := Run(quick(Config{Net: meshConfig(1, 16), Rate: rate, Seed: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stable {
			t.Fatalf("rate %.2f unexpectedly unstable", rate)
		}
		if i > 0 && res.AvgLatency <= prev {
			t.Errorf("latency did not rise: %.2f -> %.2f at rate %.2f", prev, res.AvgLatency, rate)
		}
		prev = res.AvgLatency
	}
}

func TestOverloadIsUnstable(t *testing.T) {
	// An 8x8 mesh under uniform random saturates near 0.4 flits/cycle/node;
	// offering 0.8 must be detected as unstable.
	res, err := Run(quick(Config{Net: meshConfig(1, 16), Rate: 0.8, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Errorf("rate 0.8 reported stable; accepted = %.3f", res.Accepted)
	}
	if res.Accepted > 0.55 {
		t.Errorf("accepted rate %.3f exceeds plausible mesh capacity", res.Accepted)
	}
}

func TestRouterDelayRaisesZeroLoadNotThroughput(t *testing.T) {
	// Fig 3a: tr scales zero-load latency ~1.5x for tr=2 but saturation
	// stays put.
	z1, err := ZeroLoadWith(Config{Net: meshConfig(1, 16), Seed: 4}, Run)
	if err != nil {
		t.Fatal(err)
	}
	z2, err := ZeroLoadWith(Config{Net: meshConfig(2, 16), Seed: 4}, Run)
	if err != nil {
		t.Fatal(err)
	}
	ratio := z2 / z1
	if ratio < 1.35 || ratio > 1.65 {
		t.Errorf("tr=2/tr=1 zero-load ratio = %.3f, want ~1.5", ratio)
	}
}

func TestSmallBuffersCutThroughput(t *testing.T) {
	// Fig 3b: q=4 saturates noticeably below q=16 at equal zero-load.
	cfgBig := quick(Config{Net: meshConfig(1, 16), Rate: 0.38, Seed: 5})
	cfgSmall := quick(Config{Net: meshConfig(1, 4), Rate: 0.38, Seed: 5})
	big, err := Run(cfgBig)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	if big.Stable && small.Stable && small.AvgLatency < big.AvgLatency {
		t.Errorf("q=4 latency (%.1f) below q=16 (%.1f) near saturation", small.AvgLatency, big.AvgLatency)
	}
	if !big.Stable {
		t.Errorf("q=16 should still be stable at 0.38 (accepted %.3f)", big.Accepted)
	}
}

func TestSweepStopsAfterUnstable(t *testing.T) {
	cfg := quick(Config{Net: meshConfig(1, 16), Seed: 6})
	results, err := SweepWith(cfg, []float64{0.1, 0.9, 0.95}, Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("sweep returned %d results, want 2 (stop at first unstable)", len(results))
	}
	if results[1].Stable {
		t.Error("second sweep point should be unstable")
	}
}

func TestSweepWithEarlyStopAndErrors(t *testing.T) {
	cfg := Config{Seed: 1}
	// The runner fakes instability above rate 0.25: even when a wave
	// speculatively simulates higher rates, they must not be reported.
	out, err := SweepWith(cfg, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, func(c Config) (*Result, error) {
		return &Result{Rate: c.Rate, Stable: c.Rate < 0.25}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3 (prefix through first unstable)", len(out))
	}
	for i, want := range []float64{0.1, 0.2, 0.3} {
		if out[i].Rate != want {
			t.Errorf("result %d has rate %.2f, want %.2f", i, out[i].Rate, want)
		}
	}
	if out[0].Stable != true || out[2].Stable != false {
		t.Error("stability flags lost in parallel sweep")
	}

	boom := errors.New("boom")
	out, err = SweepWith(cfg, []float64{0.1, 0.2, 0.3}, func(c Config) (*Result, error) {
		if c.Rate > 0.15 {
			return nil, boom
		}
		return &Result{Rate: c.Rate, Stable: true}, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
	if len(out) != 1 {
		t.Errorf("got %d results before the failed rate, want 1", len(out))
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	// The parallel sweep must be a pure reordering of work: every reported
	// point bit-identical to an isolated serial run of the same rate.
	cfg := quick(Config{Net: meshConfig(1, 16), Seed: 9})
	rates := []float64{0.05, 0.15, 0.25}
	sweep, err := SweepWith(cfg, rates, Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(rates) {
		t.Fatalf("sweep truncated to %d points", len(sweep))
	}
	for i, rate := range rates {
		c := cfg
		c.Rate = rate
		solo, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if sweep[i].AvgLatency != solo.AvgLatency || sweep[i].MeasuredPackets != solo.MeasuredPackets {
			t.Errorf("rate %.2f: sweep (%.6f, %d) != serial (%.6f, %d)",
				rate, sweep[i].AvgLatency, sweep[i].MeasuredPackets, solo.AvgLatency, solo.MeasuredPackets)
		}
	}
}

func TestTransposeWorstCaseVsAverage(t *testing.T) {
	// Under transpose, diagonal nodes talk to themselves (tiny latency)
	// while corner pairs cross the whole network: worst-case per-node
	// latency must far exceed the average.
	cfg := quick(Config{
		Net:     meshConfig(1, 16),
		Pattern: traffic.Transpose{},
		Rate:    0.05,
		Seed:    7,
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstLatency < 1.5*res.AvgLatency {
		t.Errorf("transpose worst %.1f vs avg %.1f: want worst >= 1.5x avg", res.WorstLatency, res.AvgLatency)
	}
}

func TestSaturationEstimateMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation bisection is slow")
	}
	cfg := Config{Net: meshConfig(1, 16), Seed: 8, Warmup: 2000, Measure: 3000, DrainLimit: 20000}
	sat, err := SaturationWith(cfg, 0.05, 0.7, 3, Run)
	if err != nil {
		t.Fatal(err)
	}
	// DOR uniform on an 8x8 mesh: theoretical bound 0.5; expect ~0.35-0.50
	// with 2 VCs and q=16.
	if sat < 0.3 || sat > 0.55 {
		t.Errorf("saturation = %.3f, want ~0.35-0.50", sat)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := Run(Config{Net: meshConfig(1, 16)}); err == nil {
		t.Error("zero rate should be rejected")
	}
	bad := meshConfig(1, 16)
	bad.Router.VCs = 0
	if _, err := Run(Config{Net: bad, Rate: 0.1}); err == nil {
		t.Error("invalid router config should be rejected")
	}
}

// TestCheckPhases: a run's phases are non-negative and its deadline fits
// the 32 bits a latency sample has; Run applies the check before it sizes
// anything from them.
func TestCheckPhases(t *testing.T) {
	for _, tc := range []struct {
		warmup, measure, drain int64
		want                   string // "" = accepted
	}{
		{0, 0, 0, ""},
		{1000, 3000, 0, ""},
		{math.MaxUint32 - DefaultMeasure - DefaultDrainLimit, 0, 0, ""},
		{-20000, 0, 0, "openloop: warmup must be >= 0 cycles (0 = default), got -20000"},
		{0, -5, 0, "openloop: measure must be >= 0 cycles (0 = default), got -5"},
		{0, 0, -1, "openloop: drain limit must be >= 0 cycles (0 = default), got -1"},
		{0, 4_000_000_000_000, 0, "openloop: warmup 10000 + measure 4000000000000 + drain limit 100000 exceeds 4294967295 cycles, the longest run whose latencies fit their 32-bit samples"},
		{math.MaxUint32 - DefaultMeasure - DefaultDrainLimit + 1, 0, 0, "openloop: warmup 4294857296 + measure 10000 + drain limit 100000 exceeds 4294967295 cycles, the longest run whose latencies fit their 32-bit samples"},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64, "openloop: warmup 9223372036854775807 + measure 9223372036854775807 + drain limit 9223372036854775807 exceeds 4294967295 cycles, the longest run whose latencies fit their 32-bit samples"},
	} {
		got := ""
		if err := CheckPhases(tc.warmup, tc.measure, tc.drain); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("CheckPhases(%d, %d, %d) = %q, want %q", tc.warmup, tc.measure, tc.drain, got, tc.want)
		}
		// Run answers the same, before building a network (there is none here).
		if tc.want != "" {
			if _, err := Run(Config{Rate: 0.1, Warmup: tc.warmup, Measure: tc.measure, DrainLimit: tc.drain}); err == nil || err.Error() != tc.want {
				t.Errorf("Run with phases (%d, %d, %d) = %v, want %q", tc.warmup, tc.measure, tc.drain, err, tc.want)
			}
		}
	}
	// A spec-sized window never sizes the sample: the presize is capped and
	// longer runs grow by append.
	if got := presize(1, 1024, math.MaxUint32); got != maxPresize {
		t.Errorf("presize of a 2^42-packet window = %d, want the cap %d", got, maxPresize)
	}
}
