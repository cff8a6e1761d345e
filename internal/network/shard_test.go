package network

import (
	"fmt"
	"testing"

	"noceval/internal/fault"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
)

// compareRuns drives two identically seeded networks with the same bursty
// load and requires bit-identical behaviour: every delivery at the same
// cycle, the same aggregate stats, the same network RNG end-state, and a
// clean conservation check on both.
func compareRuns(t *testing.T, ref, got *Network, cycles int64, seed uint64, check func()) {
	t.Helper()
	logRef := driveBursty(t, ref, cycles, seed, nil)
	logGot := driveBursty(t, got, cycles, seed, check)
	if len(logRef) != len(logGot) {
		t.Fatalf("deliveries: ref %d, got %d", len(logRef), len(logGot))
	}
	for i := range logRef {
		if logRef[i] != logGot[i] {
			t.Fatalf("delivery %d differs: ref %+v, got %+v", i, logRef[i], logGot[i])
		}
	}
	rs, ra, rfi, rfe := ref.Stats()
	gs, ga, gfi, gfe := got.Stats()
	if rs != gs || ra != ga || rfi != gfi || rfe != gfe {
		t.Fatalf("stats differ: ref (%d %d %d %d), got (%d %d %d %d)",
			rs, ra, rfi, rfe, gs, ga, gfi, gfe)
	}
	if g, w := got.RNG().Uint64(), ref.RNG().Uint64(); g != w {
		t.Fatalf("network RNG diverged: got next draw %d, ref %d", g, w)
	}
	if err := got.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := ref.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesSequential is the tentpole determinism gate at the
// network layer: for every topology shape and shard count, the sharded
// cycle loop must be bit-identical to the sequential one — same delivery
// log, stats, and RNG end-state (Valiant draws an intermediate per
// packet, so any reordering of packet creation shows up immediately).
func TestShardedMatchesSequential(t *testing.T) {
	shapes := []struct {
		name string
		topo *topology.Topology
	}{
		{"mesh8x8", topology.NewMesh(8, 8)},
		{"torus8x8", topology.NewTorus(8, 8)},
	}
	for _, shape := range shapes {
		for _, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", shape.name, shards), func(t *testing.T) {
				mk := func(s int) *Network {
					return New(Config{
						Topo:    shape.topo,
						Routing: routing.Valiant{},
						Router:  router.Config{VCs: 4, BufDepth: 4, Delay: 1},
						Seed:    7,
						Shards:  s,
					})
				}
				seq := mk(1)
				shd := mk(shards)
				defer shd.Close()
				if got, _, _ := shd.ShardStats(); got < 2 {
					t.Fatalf("ShardStats shards = %d, want >= 2", got)
				}
				compareRuns(t, seq, shd, 3000, 99, nil)
			})
		}
	}
}

// TestShardedActiveSetInvariant holds the per-cycle active-set invariant
// under the sharded loop: after every Step, every non-idle router is in
// its tile's active set and the per-tile counters match the bitmaps.
func TestShardedActiveSetInvariant(t *testing.T) {
	n := New(Config{
		Topo:    topology.NewMesh(8, 8),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    3,
		Shards:  4,
	})
	defer n.Close()
	driveBursty(t, n, 2000, 5, func() { checkActiveInvariant(t, n) })
	end, drained := n.RunUntilQuiescent(100000)
	if !drained {
		t.Fatalf("sharded network failed to drain by cycle %d", end)
	}
	if n.ActiveCount() != 0 {
		t.Fatalf("drained network has activeCount = %d", n.ActiveCount())
	}
}

// TestQuiescentShardedStepRunsNoWave: a sharded network with nothing in
// flight steps without waking its gang, and one with a packet in flight
// runs one wave per Step.
func TestQuiescentShardedStepRunsNoWave(t *testing.T) {
	n := New(Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    1,
		Shards:  2,
	})
	defer n.Close()
	shards, before, _ := n.ShardStats()
	if shards < 2 {
		t.Fatalf("ShardStats shards = %d, want >= 2", shards)
	}
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if _, waves, _ := n.ShardStats(); waves != before {
		t.Fatalf("100 quiescent Steps ran %d gang waves, want 0", waves-before)
	}
	n.Send(n.NewPacket(0, 15, 4, router.KindData))
	n.Step()
	if _, waves, _ := n.ShardStats(); waves != before+1 {
		t.Fatalf("a loaded Step ran %d gang waves, want 1", waves-before)
	}
}

// TestShardedOutboxesDrainEachCycle: the deliver-phase outboxes must be
// empty between Steps — a leftover entry would be an ejection or a flit the
// barrier schedule lost track of.
func TestShardedOutboxesDrainEachCycle(t *testing.T) {
	n := New(Config{
		Topo:    topology.NewMesh(8, 8),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    11,
		Shards:  4,
	})
	defer n.Close()
	driveBursty(t, n, 1500, 21, func() {
		for ti := range n.tiles {
			tl := &n.tiles[ti]
			if len(tl.ejectOut) != 0 || len(tl.flitOut) != 0 {
				t.Fatalf("cycle %d tile %d: outboxes not drained (eject %d, flit %d)",
					n.Now(), ti, len(tl.ejectOut), len(tl.flitOut))
			}
		}
	})
}

// TestShardedMatchesSequentialUnderFaults extends the determinism gate to
// fault injection: drops, corruption, outages, a router kill, and the
// recovery NIC all draw from shared serial state, so the faulted sharded
// loop (serial deliver, parallel compute) must still be bit-identical.
func TestShardedMatchesSequentialUnderFaults(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mk := func(s int) *Network {
				return New(Config{
					Topo:    topo,
					Routing: routing.DOR{},
					Router:  router.Config{VCs: 4, BufDepth: 4, Delay: 1},
					Seed:    13,
					Shards:  s,
					Fault: &fault.Params{
						DropRate:    0.002,
						CorruptRate: 0.002,
						Timeout:     400,
						MaxRetries:  3,
						Outages: []fault.Outage{
							{Node: 9, Port: 1, From: 200, Until: 500},
						},
						Kills: []fault.Kill{{Node: 54, At: 900}},
					},
				})
			}
			seq := mk(1)
			shd := mk(shards)
			defer shd.Close()
			compareRuns(t, seq, shd, 2500, 77, nil)
		})
	}
}

// TestShardedSteppingDigests holds the sharded cycle loop to the committed
// stepping digests (see TestActiveSetMatchesFullScan): every row of the
// matrix at 2 and 4 tiles, active-set invariant checked after every cycle,
// must leave the deliveries, stats, RNG state and per-VC state the
// sequential full scans left.
func TestShardedSteppingDigests(t *testing.T) {
	want := steppingDigests(t)
	for _, c := range steppingMatrix() {
		for _, shards := range []int{2, 4} {
			if got := steppingDigest(t, c, shards); got != want[c.name()] {
				t.Errorf("%s shards=%d: digest %s, recorded %s", c.name(), shards, got, want[c.name()])
			}
		}
	}
}
