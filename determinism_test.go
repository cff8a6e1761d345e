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

// These tests are the regression gate for the activity-tracked cycle loop:
// the legacy full-scan path (behind FullScan: the reference oracle until
// ROADMAP item 2's event-digest golden replaces it) and the
// default active-set + fast-forward path must produce identical Result
// structs and identical telemetry, cycle for cycle. They pin the refactor's
// central claim — the optimization changes how idle work is skipped, never
// what the simulation computes.

func TestOpenLoopActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	p.Shards = core.EnvShards() // CI matrix re-runs the gate at 1, 2, 4 shards
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := p.BuildPattern()
	sizes, _ := p.BuildSizes()

	run := func(fullScan bool) (*openloop.Result, *obs.Telemetry) {
		o := obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
		res, err := openloop.Run(openloop.Config{
			Net: cfg, Pattern: pat, Sizes: sizes, Rate: 0.1,
			Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 42,
			Obs: o, FullScan: fullScan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, o.Telemetry
	}

	resFull, telFull := run(true)
	resActive, telActive := run(false)

	if !reflect.DeepEqual(resFull, resActive) {
		t.Errorf("open-loop results diverge:\nfullscan:  %+v\nactiveset: %+v", resFull, resActive)
	}
	if !reflect.DeepEqual(telFull, telActive) {
		t.Errorf("open-loop telemetry diverges: fullscan %d router / %d node samples, activeset %d / %d",
			len(telFull.Routers), len(telFull.Nodes), len(telActive.Routers), len(telActive.Nodes))
	}
}

func TestBatchActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	p.Shards = core.EnvShards()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}

	// A long reply latency with a tight MSHR limit makes the run mostly
	// idle, so the active-set side exercises the quiescence fast-forward
	// heavily; the kernel timer and timeline buckets add scheduled events
	// the skip must land on exactly.
	run := func(fullScan bool) (*closedloop.BatchResult, *obs.Telemetry) {
		o := obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
		res, err := closedloop.RunBatch(closedloop.BatchConfig{
			Net: cfg, B: 24, M: 2, Seed: 42,
			Reply:          closedloop.FixedReply{Latency: 300},
			Kernel:         &closedloop.KernelConfig{StaticFraction: 0.1, TimerPeriod: 700, TimerBatch: 2},
			SampleInterval: 500,
			CollectMatrix:  true,
			MaxCycles:      2_000_000,
			Obs:            o, FullScan: fullScan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("batch run did not complete")
		}
		return res, o.Telemetry
	}

	resFull, telFull := run(true)
	resActive, telActive := run(false)

	if !reflect.DeepEqual(resFull, resActive) {
		t.Errorf("batch results diverge:\nfullscan:  runtime=%d packets=%d flits=%d avglat=%v timeline=%d\nactiveset: runtime=%d packets=%d flits=%d avglat=%v timeline=%d",
			resFull.Runtime, resFull.TotalPackets, resFull.TotalFlits, resFull.AvgPacketLatency, len(resFull.Timeline),
			resActive.Runtime, resActive.TotalPackets, resActive.TotalFlits, resActive.AvgPacketLatency, len(resActive.Timeline))
	}
	if !reflect.DeepEqual(telFull, telActive) {
		t.Errorf("batch telemetry diverges: fullscan %d router / %d node samples, activeset %d / %d",
			len(telFull.Routers), len(telFull.Nodes), len(telActive.Routers), len(telActive.Nodes))
	}
}

func TestBarrierActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	p.Shards = core.EnvShards()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(fullScan bool) *closedloop.BarrierResult {
		res, err := closedloop.RunBarrier(closedloop.BarrierConfig{
			Net: cfg, B: 50, Phases: 3, Seed: 42, FullScan: fullScan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("barrier run did not complete")
		}
		return res
	}
	resFull := run(true)
	resActive := run(false)
	if !reflect.DeepEqual(resFull, resActive) {
		t.Errorf("barrier results diverge:\nfullscan:  %+v\nactiveset: %+v", resFull, resActive)
	}
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
