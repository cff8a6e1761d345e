package openloop

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"noceval/internal/network"
	"noceval/internal/sim"
	"noceval/internal/traffic"
)

// goroutinesBackTo fails the test unless the goroutine count returns to
// want within a second: a stopped source has ended by the time Run
// returns, and the sweep wave's workers by the time runWave does, so the
// wait only covers their last instructions.
func goroutinesBackTo(t *testing.T, exit string, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines outlive it, %d before", exit, runtime.NumGoroutine(), want)
			return
		}
	}
}

// panicky panics on its fifth destination, inside the source goroutine.
type panicky struct{ calls *int }

func (panicky) Name() string { return "panicky" }
func (p panicky) Dest(rng *sim.RNG, src, n int) int {
	if *p.calls++; *p.calls == 5 {
		panic("panicky: fifth destination")
	}
	return rng.Intn(n)
}

// TestNoGoroutineOutlivesRun runs Run to each of its exits after the
// source has started — a result, a cancellation through Config.Ctx in the
// middle of the drain, a sweep wave discarding the rates above an unstable
// one, a panic in the draws and a panic on the engine thread — and
// requires the goroutine count to return to where it stood before each.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	small := func() Config {
		return Config{Net: meshConfig(1, 4), Rate: 0.1, Warmup: 300, Measure: 1000, DrainLimit: 5000, Seed: 7}
	}
	// recovered runs cfg and returns the value Run panicked with.
	recovered := func(cfg Config) (v any) {
		defer func() { v = recover() }()
		Run(cfg)
		return nil
	}
	for _, c := range []struct {
		exit string
		run  func(t *testing.T)
	}{
		{"a normal run", func(t *testing.T) {
			if res, err := Run(small()); err != nil || !res.Stable {
				t.Errorf("error %v, result %+v", err, res)
			}
		}},
		{"a cancelled run", func(t *testing.T) {
			// Past saturation the window's shortfall is known at the end
			// of the measurement phase; cancelling there leaves the run
			// in its drain.
			cfg := small()
			cfg.Rate, cfg.DrainLimit = 0.9, 1<<20
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Ctx, cfg.unstable = ctx, cancel
			if res, err := Run(cfg); !errors.Is(err, context.Canceled) {
				t.Errorf("error %v, result %+v, want a cancellation", err, res)
			}
		}},
		{"a sweep wave that discards rates", func(t *testing.T) {
			rates := []float64{0.05, 0.9, 0.95, 1.0}
			results, errs := runWave(small(), rates, 0, len(rates), []int{0, 1, 2, 3}, Run)
			if errs[0] != nil || !results[0].Stable || errs[1] != nil || results[1].Stable {
				t.Fatalf("the low rate must be stable and 0.9 unstable, got %v %v", errs[:2], results[:2])
			}
			for i := 2; i < len(rates); i++ {
				if !errors.Is(errs[i], errDiscarded) {
					t.Errorf("rate %g above the unstable one returned %v, want it discarded", rates[i], errs[i])
				}
			}
		}},
		{"a panic in the draws", func(t *testing.T) {
			cfg := small()
			cfg.Pattern = panicky{new(int)}
			var dp *drawPanic
			if err, _ := recovered(cfg).(error); !errors.As(err, &dp) || dp.value != "panicky: fifth destination" {
				t.Fatalf("recovered %v, want the pattern's own panic", err)
			}
			if !strings.Contains(dp.Error(), "panicky.Dest") {
				t.Errorf("the re-raised panic lost the stack it was raised on:\n%s", dp.Error())
			}
		}},
		{"a panic on the engine thread", func(t *testing.T) {
			cfg := small()
			cfg.Inspect = func(*network.Network) { panic("inspect") }
			if v := recovered(cfg); v != "inspect" {
				t.Errorf("recovered %v, want Inspect's panic", v)
			}
		}},
	} {
		base := runtime.NumGoroutine()
		c.run(t)
		goroutinesBackTo(t, c.exit, base)
	}
}

// TestSourceChunksMatchSerialDraws holds the source's chunks, concatenated,
// to the draws of the serial loop it replaced, for a single class and a
// mix, at loads that close chunks by cycle count and by capacity.
func TestSourceChunksMatchSerialDraws(t *testing.T) {
	sizes := traffic.DefaultBimodal()
	mix := []traffic.Class{{Name: "a", Share: 0.3, Sizes: sizes, Pattern: traffic.Uniform{}},
		{Name: "b", Share: 0.7, Sizes: traffic.FixedSize(2), Pattern: traffic.Hotspot{Hot: 3, Fraction: 0.4}}}
	for _, c := range []struct {
		name    string
		prob    float64
		classes []traffic.Class
	}{{"idle", 0.008, nil}, {"loaded", 0.3, nil}, {"mix", 0.5, mix}} {
		const n, cycles = 64, 9000
		seed := uint64(41)
		dr := &draws{rng: sim.NewRNG(seed), n: n, prob: c.prob,
			sizes: []traffic.SizeDist{sizes}, patterns: []traffic.Pattern{traffic.Uniform{}}}
		if c.classes != nil {
			dr.prob, dr.sizes, dr.patterns = 0, nil, nil
			for _, cl := range c.classes {
				dr.classProb = append(dr.classProb, c.prob*cl.Share)
				dr.sizes, dr.patterns = append(dr.sizes, cl.Sizes), append(dr.patterns, cl.Pattern)
			}
		}
		dr.room = n * len(dr.sizes)

		type draw struct {
			now             int64
			node, dst, size int
			class           int
		}
		var want []draw
		rng := sim.NewRNG(seed)
		for now := int64(0); now < cycles; now++ {
			if c.classes == nil {
				for node := rng.NextBernoulli(c.prob, 0, n); node < n; node = rng.NextBernoulli(c.prob, node+1, n) {
					size := sizes.Sample(rng)
					want = append(want, draw{now, node, traffic.Uniform{}.Dest(rng, node, n), size, 0})
				}
				continue
			}
			for node := 0; node < n; node++ {
				for qc, cl := range c.classes {
					if rng.Bernoulli(dr.classProb[qc]) {
						size := cl.Sizes.Sample(rng)
						want = append(want, draw{now, node, cl.Pattern.Dest(rng, node, n), size, qc})
					}
				}
			}
		}

		src := startSource(dr)
		var got []draw
		var byCapacity int
		ch := src.next(nil)
		for from := int64(0); from < cycles; ch = src.next(ch) {
			if ch.from != from || ch.to <= ch.from || ch.to-ch.from > chunkCycles {
				t.Fatalf("%s: chunk [%d, %d) follows cycle %d", c.name, ch.from, ch.to, from)
			}
			if cap(ch.inj)-len(ch.inj) < dr.room {
				byCapacity++
			}
			for _, e := range ch.inj {
				if now := ch.from + int64(e.at); now < cycles {
					got = append(got, draw{now, int(e.node), int(e.dst), int(e.size), int(e.class)})
				}
			}
			from = ch.to
		}
		src.close()
		if len(got) != len(want) {
			t.Fatalf("%s: the source drew %d packets in %d cycles, the serial loop %d", c.name, len(got), cycles, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: draw %d is %+v, the serial loop's %+v", c.name, i, got[i], want[i])
			}
		}
		if c.name != "idle" && byCapacity == 0 {
			t.Errorf("%s: no chunk closed by capacity", c.name)
		}
		if c.name == "idle" && byCapacity != 0 {
			t.Errorf("idle: %d chunks closed by capacity", byCapacity)
		}
	}
}
