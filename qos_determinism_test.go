package noceval

// Multi-class determinism matrix: the QoS refactor threads a class
// dimension through injection, arbitration, and accounting, and every
// bit-identity guarantee the single-class stack pins must carry over —
// against the committed digests of the full-scan reference and across
// shard counts, for both 2- and 3-class mixes. A fault-invariant pass runs the
// conservation oracle with classes and a lossy fabric enabled together,
// since retransmission clones must preserve the class stamp.

import (
	"fmt"
	"reflect"
	"testing"

	"noceval/internal/core"
	"noceval/internal/fault"
	"noceval/internal/fault/invariants"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/openloop"
	"noceval/internal/traffic"
)

// qosMatrixParams enumerates the class mixes the matrix runs: a 2-class
// priority/bulk split and a 3-class mix with a non-uniform pattern in the
// middle class (classes may disagree on pattern and size distribution).
func qosMatrixParams() []core.NetworkParams {
	two := core.Baseline()
	two.VCs = 4
	two.Classes = []core.ClassSpec{
		{Name: "hi", Share: 0.3},
		{Name: "lo", Share: 0.7, Sizes: "bimodal"},
	}
	three := core.Baseline()
	three.VCs = 6
	three.Classes = []core.ClassSpec{
		{Name: "ctl", Share: 0.1},
		{Name: "data", Share: 0.4, Pattern: "transpose"},
		{Name: "bulk", Share: 0.5, Sizes: "bimodal"},
	}
	return []core.NetworkParams{two, three}
}

// qosOpenLoopConfig is one multi-class open-loop measurement on the given
// network config, with the class list resolved from p.
func qosOpenLoopConfig(t *testing.T, p core.NetworkParams, cfg network.Config) openloop.Config {
	t.Helper()
	pat, err := p.BuildPattern()
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := p.BuildSizes()
	if err != nil {
		t.Fatal(err)
	}
	classes, err := p.BuildClasses()
	if err != nil {
		t.Fatal(err)
	}
	return openloop.Config{
		Net: cfg, Pattern: pat, Sizes: sizes, Classes: classes, Rate: 0.12,
		Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 42,
	}
}

// qosOpenLoop runs that measurement with telemetry on.
func qosOpenLoop(t *testing.T, p core.NetworkParams, cfg network.Config) (*openloop.Result, *obs.Telemetry) {
	t.Helper()
	c := qosOpenLoopConfig(t, p, cfg)
	c.Obs = obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
	res, err := openloop.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.Obs.Telemetry
}

// TestQoSCrossEngineDeterminism pins the multi-class stack to the
// full-scan reference's committed digests: per-class injection order,
// strict-priority allocation and per-class accounting leave the same event
// stream, result and telemetry.
func TestQoSCrossEngineDeterminism(t *testing.T) {
	for _, p := range qosMatrixParams() {
		p.Shards = core.EnvShards()
		t.Run(fmt.Sprintf("classes=%d", len(p.Classes)), func(t *testing.T) {
			cfg, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			d, res := openLoopDigest(t, qosOpenLoopConfig(t, p, cfg))
			if len(res.PerClass) != len(p.Classes) {
				t.Fatalf("expected %d per-class results, got %d", len(p.Classes), len(res.PerClass))
			}
			checkEventDigest(t, d)
		})
	}
}

// TestQoSShardedDeterminism pins the multi-class stack across shard
// counts: the sharded gang must produce the same per-class results and
// telemetry as the sequential loop, bit for bit.
func TestQoSShardedDeterminism(t *testing.T) {
	for _, base := range qosMatrixParams() {
		for _, shards := range []int{2, 4} {
			p := base
			p.Shards = 1
			cfgSeq, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			p.Shards = shards
			cfgSh, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("classes=%d/shards=%d", len(p.Classes), shards), func(t *testing.T) {
				resSeq, telSeq := qosOpenLoop(t, p, cfgSeq)
				resSh, telSh := qosOpenLoop(t, p, cfgSh)
				if !reflect.DeepEqual(resSeq, resSh) {
					t.Errorf("multi-class results diverge:\nsequential: %+v\nsharded:    %+v", resSeq, resSh)
				}
				if !reflect.DeepEqual(telSeq, telSh) {
					t.Errorf("multi-class telemetry diverges: sequential %d router samples, sharded %d",
						len(telSeq.Routers), len(telSh.Routers))
				}
			})
		}
	}
}

// TestQoSFaultInvariants runs the conservation oracle on a lossy fabric
// with QoS classes enabled: drops, corruption retries, and NIC
// retransmission must keep flit/credit conservation intact when the VC
// space is partitioned and arbitration is strict-priority, and the run
// must match the full-scan reference's committed digest.
func TestQoSFaultInvariants(t *testing.T) {
	for _, p := range qosMatrixParams() {
		p.Shards = core.EnvShards()
		p.Fault = &fault.Params{
			CorruptRate: 1e-3, DropRate: 1e-3,
			Timeout: 300, MaxRetries: 6, Seed: 17,
		}
		t.Run(fmt.Sprintf("classes=%d", len(p.Classes)), func(t *testing.T) {
			cfg, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			classes, err := p.BuildClasses()
			if err != nil {
				t.Fatal(err)
			}
			d, _ := openLoopDigest(t, openloop.Config{
				Net: cfg, Pattern: traffic.Uniform{}, Sizes: traffic.FixedSize(1),
				Classes: classes, Rate: 0.1,
				Warmup: 500, Measure: 1000, DrainLimit: 400_000,
				Seed: 42,
				Inspect: func(n *network.Network) {
					if err := invariants.Check(n); err != nil {
						t.Error(err)
					}
				},
			})
			checkEventDigest(t, d)
		})
	}
}
