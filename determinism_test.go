package noceval

import (
	"fmt"
	"reflect"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/openloop"
)

// These tests are the regression gate for the cycle loop under the three
// network-level run modes: each runs one configuration end to end — active
// sets, quiescence fast-forward, telemetry sampling, result assembly — and
// compares the tracer's event stream, the Result struct and the telemetry
// with testdata/event_digests.json (see event_digest_test.go), recorded
// from the full-scan, never-skipping reference before it was removed. The
// CI matrix re-runs them at 1, 2 and 4 shards against the same file.

func TestOpenLoopActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()
	d, _ := openLoopDigest(t, openloop.Config{
		Net: cfg, Pattern: pat, Sizes: sizes, Rate: 0.1,
		Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 42,
	})
	checkEventDigest(t, d)
}

func TestBatchActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A long reply latency with a tight MSHR limit makes the run mostly
	// idle, so it exercises the quiescence fast-forward heavily; the kernel
	// timer, the timeline buckets and the telemetry samples add scheduled
	// events the skip must land on exactly.
	d := batchDigest(t, closedloop.BatchConfig{
		Net: cfg, B: 24, M: 2, Seed: 42,
		Reply:          closedloop.FixedReply{Latency: 300},
		Kernel:         &closedloop.KernelConfig{StaticFraction: 0.1, TimerPeriod: 700, TimerBatch: 2},
		SampleInterval: 500,
		CollectMatrix:  true,
		MaxCycles:      2_000_000,
	})
	checkEventDigest(t, d)
}

func TestBarrierActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := barrierDigest(t, closedloop.BarrierConfig{Net: cfg, B: 50, Phases: 3, Seed: 42})
	checkEventDigest(t, d)
}

// TestShardedRunModeDeterminism is the run-mode-level gate for the sharded
// cycle loop: every run mode, executed end to end (engine fast-forward,
// telemetry sampling, result assembly), must produce a Result struct and
// telemetry stream identical under any shard count. Shard counts beyond
// the machine's core count are included deliberately — correctness must
// not depend on the gang actually running in parallel.
func TestShardedRunModeDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		p := core.Baseline()
		cfg, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		p.Shards = shards
		cfgSh, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}

		t.Run(fmt.Sprintf("openloop/shards=%d", shards), func(t *testing.T) {
			pat, _ := p.BuildPattern()
			sizes, _ := p.BuildSizes()
			run := func(c network.Config) (*openloop.Result, *obs.Telemetry) {
				o := obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
				res, err := openloop.Run(openloop.Config{
					Net: c, Pattern: pat, Sizes: sizes, Rate: 0.15,
					Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 42,
					Obs: o,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, o.Telemetry
			}
			resSeq, telSeq := run(cfg)
			resSh, telSh := run(cfgSh)
			if !reflect.DeepEqual(resSeq, resSh) {
				t.Errorf("open-loop results diverge:\nsequential: %+v\nsharded:    %+v", resSeq, resSh)
			}
			if !reflect.DeepEqual(telSeq, telSh) {
				t.Errorf("open-loop telemetry diverges: sequential %d router samples, sharded %d",
					len(telSeq.Routers), len(telSh.Routers))
			}
		})

		t.Run(fmt.Sprintf("batch/shards=%d", shards), func(t *testing.T) {
			run := func(c network.Config) *closedloop.BatchResult {
				res, err := closedloop.RunBatch(closedloop.BatchConfig{
					Net: c, B: 24, M: 2, Seed: 42,
					Reply:     closedloop.FixedReply{Latency: 300},
					MaxCycles: 2_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatal("batch run did not complete")
				}
				return res
			}
			resSeq := run(cfg)
			resSh := run(cfgSh)
			if !reflect.DeepEqual(resSeq, resSh) {
				t.Errorf("batch results diverge:\nsequential: runtime=%d packets=%d\nsharded:    runtime=%d packets=%d",
					resSeq.Runtime, resSeq.TotalPackets, resSh.Runtime, resSh.TotalPackets)
			}
		})

		t.Run(fmt.Sprintf("barrier/shards=%d", shards), func(t *testing.T) {
			run := func(c network.Config) *closedloop.BarrierResult {
				res, err := closedloop.RunBarrier(closedloop.BarrierConfig{
					Net: c, B: 50, Phases: 3, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatal("barrier run did not complete")
				}
				return res
			}
			resSeq := run(cfg)
			resSh := run(cfgSh)
			if !reflect.DeepEqual(resSeq, resSh) {
				t.Errorf("barrier results diverge:\nsequential: %+v\nsharded:    %+v", resSeq, resSh)
			}
		})
	}
}
