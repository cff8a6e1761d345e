package network

import (
	"testing"
	"testing/quick"

	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// TestRandomConfigConservation drives randomly drawn configurations with
// random traffic and checks the global invariants: every packet arrives
// exactly once, flit accounting balances, and the network drains.
func TestRandomConfigConservation(t *testing.T) {
	topos := []func() *topology.Topology{
		func() *topology.Topology { return topology.NewMesh(4, 4) },
		func() *topology.Topology { return topology.NewMesh(8, 8) },
		func() *topology.Topology { return topology.NewTorus(4, 4) },
		func() *topology.Topology { return topology.NewRing(16) },
	}
	algs := allAlgorithms

	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		topo := topos[rng.Intn(len(topos))]()
		alg := algs[rng.Intn(len(algs))]
		cfg := Config{
			Topo:    topo,
			Routing: alg,
			Router: router.Config{
				VCs:      alg.NumClasses(topo) + rng.Intn(3),
				BufDepth: 1 + rng.Intn(8),
				Delay:    int64(1 + rng.Intn(4)),
				Arb:      router.ArbPolicy(rng.Intn(2)),
			},
			Seed: seed,
		}
		n := New(cfg)
		arrived := map[uint64]int{}
		n.OnReceive = func(now int64, p *router.Packet) { arrived[p.ID]++ }
		sent := map[uint64]bool{}
		load := 0.1 + 0.4*rng.Float64()
		for cycle := 0; cycle < 400; cycle++ {
			for node := 0; node < topo.N; node++ {
				if rng.Bernoulli(load) {
					p := n.NewPacket(node, rng.Intn(topo.N), 1+rng.Intn(4), router.KindData)
					n.Send(p)
					sent[p.ID] = true
				}
			}
			n.Step()
		}
		if _, ok := n.RunUntilQuiescent(500000); !ok {
			t.Logf("seed %d: did not drain (%s on %s)", seed, alg.Name(), topo.Name)
			return false
		}
		if err := n.CheckConservation(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(arrived) != len(sent) {
			t.Logf("seed %d: %d sent, %d arrived", seed, len(sent), len(arrived))
			return false
		}
		for id, count := range arrived {
			if count != 1 || !sent[id] {
				t.Logf("seed %d: packet %d arrived %d times", seed, id, count)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestMAEscapeCommitRegression replays the exact random configuration that
// exposed the minimal-adaptive deadlock: before escape channels were made
// one-way ("once on escape, stay on escape"), packets could leave the
// escape network and re-enter adaptive channels, creating cyclic extended
// dependencies between the X and Y escape channels.
func TestMAEscapeCommitRegression(t *testing.T) {
	const seed = uint64(0x724e33c25c6deb33)
	rng := sim.NewRNG(seed)
	topos := []func() *topology.Topology{
		func() *topology.Topology { return topology.NewMesh(4, 4) },
		func() *topology.Topology { return topology.NewMesh(8, 8) },
		func() *topology.Topology { return topology.NewTorus(4, 4) },
		func() *topology.Topology { return topology.NewRing(16) },
	}
	algs := allAlgorithms
	topo := topos[rng.Intn(len(topos))]()
	alg := algs[rng.Intn(len(algs))]
	cfg := Config{
		Topo:    topo,
		Routing: alg,
		Router: router.Config{
			VCs:      alg.NumClasses(topo) + rng.Intn(3),
			BufDepth: 1 + rng.Intn(8),
			Delay:    int64(1 + rng.Intn(4)),
			Arb:      router.ArbPolicy(rng.Intn(2)),
		},
		Seed: seed,
	}
	n := New(cfg)
	load := 0.1 + 0.4*rng.Float64()
	sent, arrived := 0, 0
	n.OnReceive = func(now int64, p *router.Packet) { arrived++ }
	for cycle := 0; cycle < 400; cycle++ {
		for node := 0; node < topo.N; node++ {
			if rng.Bernoulli(load) {
				n.Send(n.NewPacket(node, rng.Intn(topo.N), 1+rng.Intn(4), router.KindData))
				sent++
			}
		}
		n.Step()
	}
	if _, ok := n.RunUntilQuiescent(500000); !ok {
		t.Fatalf("regression config deadlocked again (%s on %s)", alg.Name(), topo.Name)
	}
	if arrived != sent {
		t.Errorf("arrived %d, sent %d", arrived, sent)
	}
}

// TestMANoDeadlockUnderSustainedSaturation hammers minimal-adaptive routing
// with minimal VCs and tiny buffers — the regime where the escape channel
// is the only thing standing between the network and deadlock.
func TestMANoDeadlockUnderSustainedSaturation(t *testing.T) {
	for _, mk := range []func() *topology.Topology{
		func() *topology.Topology { return topology.NewMesh(8, 8) },
		func() *topology.Topology { return topology.NewTorus(4, 4) },
	} {
		topo := mk()
		alg := routing.MinimalAdaptive{}
		n := New(Config{
			Topo:    topo,
			Routing: alg,
			Router: router.Config{
				VCs:      alg.NumClasses(topo), // no spare VCs at all
				BufDepth: 1,
				Delay:    1,
			},
			Seed: 99,
		})
		rng := n.RNG()
		sent, arrived := 0, 0
		n.OnReceive = func(now int64, p *router.Packet) { arrived++ }
		for cycle := 0; cycle < 5000; cycle++ {
			for node := 0; node < topo.N; node++ {
				if rng.Bernoulli(0.6) {
					n.Send(n.NewPacket(node, rng.Intn(topo.N), 1+rng.Intn(4), router.KindData))
					sent++
				}
			}
			n.Step()
		}
		if _, ok := n.RunUntilQuiescent(2000000); !ok {
			t.Fatalf("%s: MA deadlocked under saturation", topo.Name)
		}
		if arrived != sent {
			t.Errorf("%s: arrived %d, sent %d", topo.Name, arrived, sent)
		}
		if err := n.CheckConservation(); err != nil {
			t.Error(err)
		}
	}
}

// TestPacketsNeverMisdelivered checks that every packet reaches exactly its
// addressed destination.
func TestPacketsNeverMisdelivered(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	for _, alg := range allAlgorithms {
		n := New(Config{
			Topo:    topo,
			Routing: alg,
			Router:  router.Config{VCs: 4, BufDepth: 4, Delay: 1},
			Seed:    77,
		})
		want := map[uint64]int{}
		n.OnReceive = func(now int64, p *router.Packet) {
			if want[p.ID] != p.Dst {
				t.Errorf("%s: packet %d delivered to %d, addressed to %d", alg.Name(), p.ID, p.Dst, want[p.ID])
			}
		}
		rng := n.RNG()
		for i := 0; i < 500; i++ {
			p := n.NewPacket(rng.Intn(16), rng.Intn(16), 1+rng.Intn(3), router.KindData)
			want[p.ID] = p.Dst
			n.Send(p)
			n.Step()
		}
		if _, ok := n.RunUntilQuiescent(100000); !ok {
			t.Fatalf("%s: did not drain", alg.Name())
		}
	}
}

// TestFlitOrderWithinPacketPreserved verifies wormhole integrity: a
// packet's flits arrive in sequence with no interleaving gaps at the
// destination (the tail is last, and arrival implies all flits ejected).
func TestFlitOrderWithinPacketPreserved(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n := New(Config{
		Topo:    topo,
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 2, Delay: 1},
		Seed:    5,
	})
	// ArriveTime is set only when the tail flit ejects, so at any arrival
	// the global ejected-flit count must cover every arrived packet's full
	// size (flits of concurrent packets interleave, but never run ahead).
	var arrivedFlits int64
	n.OnReceive = func(now int64, p *router.Packet) {
		arrivedFlits += int64(p.Size)
		_, _, _, ejected := n.Stats()
		if ejected < arrivedFlits {
			t.Errorf("packet %d arrived before all its flits ejected (%d < %d)", p.ID, ejected, arrivedFlits)
		}
	}
	rng := n.RNG()
	for i := 0; i < 200; i++ {
		n.Send(n.NewPacket(rng.Intn(16), rng.Intn(16), 4, router.KindData))
		n.Step()
		n.Step()
	}
	if _, ok := n.RunUntilQuiescent(100000); !ok {
		t.Fatal("did not drain")
	}
}

// TestChannelLoadsAccounting checks the utilization report against flit
// totals.
func TestChannelLoadsAccounting(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n := New(Config{
		Topo:    topo,
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 8, Delay: 1},
		Seed:    6,
	})
	// One packet per node pair along the top row: 0 -> 3 crosses three
	// +x channels.
	n.Send(n.NewPacket(0, 3, 1, router.KindData))
	if _, ok := n.RunUntilQuiescent(10000); !ok {
		t.Fatal("did not drain")
	}
	loads := n.ChannelLoads()
	carried := int64(0)
	for _, l := range loads {
		carried += l.Flits
		if l.Utilization < 0 || l.Utilization > 1 {
			t.Errorf("utilization %v out of range", l.Utilization)
		}
	}
	if carried != 3 {
		t.Errorf("channels carried %d flits, want 3 (three hops)", carried)
	}
	if loads[0].Flits < loads[len(loads)-1].Flits {
		t.Error("channel loads not sorted descending")
	}
}

// TestDeterminism: identical seeds must give identical results.
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		topo := topology.NewTorus(4, 4)
		n := New(Config{
			Topo:    topo,
			Routing: routing.ROMM{},
			Router:  router.Config{VCs: 4, BufDepth: 4, Delay: 2},
			Seed:    123,
		})
		var latSum int64
		n.OnReceive = func(now int64, p *router.Packet) { latSum += p.Latency() }
		rng := n.RNG()
		for i := 0; i < 300; i++ {
			for node := 0; node < 16; node++ {
				if rng.Bernoulli(0.3) {
					n.Send(n.NewPacket(node, rng.Intn(16), 1, router.KindData))
				}
			}
			n.Step()
		}
		n.RunUntilQuiescent(100000)
		return latSum, n.Now()
	}
	l1, c1 := run()
	l2, c2 := run()
	if l1 != l2 || c1 != c2 {
		t.Errorf("non-deterministic: (%d, %d) vs (%d, %d)", l1, c1, l2, c2)
	}
}
