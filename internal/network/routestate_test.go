package network_test

import (
	"reflect"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/network"
	"noceval/internal/openloop"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

// TestMemoisedRoutesIgnoreRouteState runs open-loop and batch experiments
// on a DOR mesh twice: with memoised routes, where routers neither update
// nor read Packet.Route, and with routes asked per head flit, where every
// hop updates Route and routing reads it. Identical results show that the
// memoised network loses nothing by leaving Route as injection set it,
// and, since the second network never takes the router's lone pass, that
// the lone pass moves packets as stepOne's phases do.
func TestMemoisedRoutesIgnoreRouteState(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	net := func(alg routing.Algorithm, classes int) network.Config {
		return network.Config{Topo: topo, Routing: alg, Seed: 3,
			Router: router.Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: classes}}
	}
	if row, _ := routing.NextHops(network.PerHeadRouting{Algorithm: routing.DOR{}}, topo, 0); row != nil {
		t.Fatal("NextHops memoises the wrapped algorithm; the test would compare memoised routes with themselves")
	}
	for _, c := range []struct {
		name    string
		rate    float64
		sizes   traffic.SizeDist
		classes int
	}{
		{"single flits at 0.05", 0.05, traffic.FixedSize(1), 1},
		{"bimodal at 0.3", 0.3, traffic.DefaultBimodal(), 1},
		{"two classes at 0.2", 0.2, traffic.DefaultBimodal(), 2},
	} {
		run := func(alg routing.Algorithm) *openloop.Result {
			cfg := openloop.Config{Net: net(alg, c.classes), Pattern: traffic.Uniform{}, Sizes: c.sizes,
				Rate: c.rate, Warmup: 500, Measure: 2000, DrainLimit: 20000, Seed: 5}
			if c.classes > 1 {
				cfg.Classes = []traffic.Class{{Name: "hi", Share: 0.5}, {Name: "lo", Share: 0.5}}
			}
			res, err := openloop.Run(cfg)
			if err != nil {
				t.Fatalf("open loop %s: %v", c.name, err)
			}
			return res
		}
		memo, asked := run(routing.DOR{}), run(network.PerHeadRouting{Algorithm: routing.DOR{}})
		if memo.MeasuredPackets == 0 || memo.AvgHops == 0 {
			t.Fatalf("open loop %s: nothing measured", c.name)
		}
		if !reflect.DeepEqual(memo, asked) {
			t.Errorf("open loop %s: memoised routes give\n%+v\nroutes asked per head flit give\n%+v", c.name, memo, asked)
		}
	}
	batch := func(alg routing.Algorithm) *closedloop.BatchResult {
		res, err := closedloop.RunBatch(closedloop.BatchConfig{Net: net(alg, 1), Pattern: traffic.Uniform{},
			B: 200, M: 4, ReplySize: 4, Seed: 5})
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		return res
	}
	memo, asked := batch(routing.DOR{}), batch(network.PerHeadRouting{Algorithm: routing.DOR{}})
	if !memo.Completed {
		t.Fatal("batch did not complete")
	}
	if !reflect.DeepEqual(memo, asked) {
		t.Errorf("batch: memoised routes give\n%+v\nroutes asked per head flit give\n%+v", memo, asked)
	}
}
