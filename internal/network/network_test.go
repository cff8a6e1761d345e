package network

import (
	"testing"

	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/stats"
	"noceval/internal/topology"
)

func testConfig(t *topology.Topology, alg routing.Algorithm, vcs, depth int, tr int64) Config {
	return Config{
		Topo:    t,
		Routing: alg,
		Router:  router.Config{VCs: vcs, BufDepth: depth, Delay: tr},
		Seed:    1,
	}
}

// deliverOne sends a single packet and returns it after arrival.
func deliverOne(t *testing.T, n *Network, src, dst, size int) *router.Packet {
	t.Helper()
	var got *router.Packet
	n.OnReceive = func(now int64, p *router.Packet) { got = p }
	p := n.NewPacket(src, dst, size, router.KindData)
	n.Send(p)
	for i := 0; i < 10000 && got == nil; i++ {
		n.Step()
	}
	if got == nil {
		t.Fatalf("packet %d->%d never arrived", src, dst)
	}
	if got.ID != p.ID {
		t.Fatalf("arrived packet %d is not the sent packet %d", got.ID, p.ID)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSinglePacketLatencyMesh(t *testing.T) {
	// On an idle mesh with tr=1 and 1-cycle links, each hop costs 2 cycles
	// and ejection adds the router pipeline (tr) once more.
	topo := topology.NewMesh(8, 8)
	for _, tc := range []struct {
		src, dst int
		hops     int
	}{
		{0, 1, 1},   // one hop +x
		{0, 7, 7},   // across the top row
		{0, 63, 14}, // corner to corner
		{9, 9, 0},   // self traffic
		{63, 0, 14}, // reverse corner to corner
		{8, 16, 1},  // one hop +y
	} {
		n := New(testConfig(topo, routing.DOR{}, 2, 8, 1))
		p := deliverOne(t, n, tc.src, tc.dst, 1)
		if p.Hops != tc.hops {
			t.Errorf("%d->%d: hops = %d, want %d", tc.src, tc.dst, p.Hops, tc.hops)
		}
		// Latency: inject at cycle 0, SA the same cycle, each hop costs
		// tr+link=2 cycles, and ejection costs the router pipeline tr=1.
		want := int64(tc.hops*2 + 1)
		if p.Latency() != want {
			t.Errorf("%d->%d: latency = %d, want %d", tc.src, tc.dst, p.Latency(), want)
		}
	}
}

func TestRouterDelayScalesZeroLoadLatency(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	lat := map[int64]int64{}
	for _, tr := range []int64{1, 2, 4} {
		n := New(testConfig(topo, routing.DOR{}, 2, 8, tr))
		p := deliverOne(t, n, 0, 63, 1)
		lat[tr] = p.Latency()
	}
	// Hop latency is tr+1, so 14 hops cost 14*(tr+1); ratios ~1.5 and ~2.5.
	r2 := float64(lat[2]) / float64(lat[1])
	r4 := float64(lat[4]) / float64(lat[1])
	if r2 < 1.4 || r2 > 1.6 {
		t.Errorf("tr=2/tr=1 latency ratio = %.3f, want ~1.5", r2)
	}
	if r4 < 2.3 || r4 > 2.7 {
		t.Errorf("tr=4/tr=1 latency ratio = %.3f, want ~2.5", r4)
	}
}

func TestMultiFlitPacket(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n := New(testConfig(topo, routing.DOR{}, 2, 8, 1))
	p := deliverOne(t, n, 0, 15, 4)
	// Serialization adds size-1 cycles to the tail's arrival.
	want := int64(6*2+1) + 3
	if p.Latency() != want {
		t.Errorf("4-flit latency = %d, want %d", p.Latency(), want)
	}
}

func TestTorusWrapAndDateline(t *testing.T) {
	topo := topology.NewTorus(8, 8)
	n := New(testConfig(topo, routing.DOR{}, 2, 8, 1))
	// 0 -> 7 should take the 1-hop wraparound, not 7 hops.
	p := deliverOne(t, n, 0, 7, 1)
	if p.Hops != 1 {
		t.Errorf("torus 0->7 hops = %d, want 1 (wraparound)", p.Hops)
	}
}

func TestRingRouting(t *testing.T) {
	topo := topology.NewRing(8)
	n := New(testConfig(topo, routing.DOR{}, 2, 8, 1))
	p := deliverOne(t, n, 0, 5, 1)
	if p.Hops != 3 {
		t.Errorf("ring 0->5 hops = %d, want 3 (short way)", p.Hops)
	}
}

func TestAllAlgorithmsDeliverAllPairs(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, alg := range allAlgorithms {
		n := New(Config{
			Topo:    topo,
			Routing: alg,
			Router:  router.Config{VCs: 4, BufDepth: 4, Delay: 1},
			Seed:    7,
		})
		arrived := 0
		n.OnReceive = func(now int64, p *router.Packet) { arrived++ }
		want := 0
		for s := 0; s < topo.N; s++ {
			for d := 0; d < topo.N; d++ {
				n.Send(n.NewPacket(s, d, 1, router.KindData))
				want++
			}
		}
		if _, ok := n.RunUntilQuiescent(100000); !ok {
			t.Fatalf("%s: network did not drain", alg.Name())
		}
		if arrived != want {
			t.Errorf("%s: arrived %d packets, want %d", alg.Name(), arrived, want)
		}
		if err := n.CheckConservation(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestHeavyRandomTrafficConservation(t *testing.T) {
	// Saturate a small torus with every algorithm and check nothing is
	// lost, duplicated, or deadlocked.
	topo := topology.NewTorus(4, 4)
	for _, alg := range allAlgorithms {
		n := New(Config{
			Topo:    topo,
			Routing: alg,
			Router:  router.Config{VCs: 4, BufDepth: 2, Delay: 2},
			Seed:    11,
		})
		rng := n.RNG()
		arrived := 0
		n.OnReceive = func(now int64, p *router.Packet) { arrived++ }
		sent := 0
		for cycle := 0; cycle < 3000; cycle++ {
			for node := 0; node < topo.N; node++ {
				if rng.Bernoulli(0.4) {
					size := 1
					if rng.Bernoulli(0.5) {
						size = 4
					}
					n.Send(n.NewPacket(node, rng.Intn(topo.N), size, router.KindData))
					sent++
				}
			}
			n.Step()
		}
		if _, ok := n.RunUntilQuiescent(1000000); !ok {
			t.Fatalf("%s: saturated torus did not drain (deadlock?)", alg.Name())
		}
		if arrived != sent {
			t.Errorf("%s: arrived %d packets, want %d", alg.Name(), arrived, sent)
		}
		if err := n.CheckConservation(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestAgeBasedArbitrationDelivers(t *testing.T) {
	// Exercise the age-ordered VA and SA paths under heavy load with
	// multi-flit packets and verify conservation and completion.
	topo := topology.NewMesh(4, 4)
	n := New(Config{
		Topo:    topo,
		Routing: routing.MinimalAdaptive{},
		Router:  router.Config{VCs: 4, BufDepth: 2, Delay: 1, Arb: router.AgeBased},
		Seed:    21,
	})
	rng := n.RNG()
	arrived, sent := 0, 0
	var maxLatency int64
	n.OnReceive = func(now int64, p *router.Packet) {
		arrived++
		if p.Latency() > maxLatency {
			maxLatency = p.Latency()
		}
	}
	for cycle := 0; cycle < 2000; cycle++ {
		for node := 0; node < topo.N; node++ {
			if rng.Bernoulli(0.5) {
				n.Send(n.NewPacket(node, rng.Intn(topo.N), 1+rng.Intn(4), router.KindData))
				sent++
			}
		}
		n.Step()
	}
	if _, ok := n.RunUntilQuiescent(500000); !ok {
		t.Fatal("age-based network did not drain")
	}
	if arrived != sent {
		t.Errorf("arrived %d, sent %d", arrived, sent)
	}
	if err := n.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestAgeBasedBoundsTailLatency(t *testing.T) {
	// Near saturation, age-based arbitration should not produce a worse
	// p99 than round-robin (it is the fairness mechanism of Table I).
	p99 := func(arb router.ArbPolicy) float64 {
		topo := topology.NewMesh(8, 8)
		n := New(Config{
			Topo:    topo,
			Routing: routing.DOR{},
			Router:  router.Config{VCs: 2, BufDepth: 16, Delay: 1, Arb: arb},
			Seed:    22,
		})
		rng := n.RNG()
		var lats []float64
		n.OnReceive = func(now int64, p *router.Packet) { lats = append(lats, float64(p.Latency())) }
		for cycle := 0; cycle < 6000; cycle++ {
			for node := 0; node < topo.N; node++ {
				if rng.Bernoulli(0.38) {
					n.Send(n.NewPacket(node, rng.Intn(topo.N), 1, router.KindData))
				}
			}
			n.Step()
		}
		n.RunUntilQuiescent(500000)
		s := stats.Summarize(lats)
		return s.P99
	}
	rr := p99(router.RoundRobin)
	age := p99(router.AgeBased)
	if age > rr*1.2 {
		t.Errorf("age-based p99 %.1f much worse than round-robin %.1f", age, rr)
	}
}

func TestMinimalRoutingHopCounts(t *testing.T) {
	// DOR, MA and ROMM must all deliver in exactly the minimal hop count.
	topo := topology.NewMesh(8, 8)
	for _, alg := range []routing.Algorithm{routing.DOR{}, routing.MinimalAdaptive{}, routing.ROMM{}} {
		n := New(Config{
			Topo:    topo,
			Routing: alg,
			Router:  router.Config{VCs: 4, BufDepth: 8, Delay: 1},
			Seed:    3,
		})
		n.OnReceive = func(now int64, p *router.Packet) {
			if want := topo.Distance(p.Src, p.Dst); p.Hops != want {
				t.Errorf("%s: %d->%d took %d hops, want %d", alg.Name(), p.Src, p.Dst, p.Hops, want)
			}
		}
		for s := 0; s < topo.N; s += 5 {
			for d := 0; d < topo.N; d += 3 {
				n.Send(n.NewPacket(s, d, 1, router.KindData))
			}
		}
		if _, ok := n.RunUntilQuiescent(100000); !ok {
			t.Fatal("did not drain")
		}
	}
}
