package network

import (
	"fmt"
	"testing"

	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// delivery records one OnReceive callback for cross-run comparison.
type delivery struct {
	cycle    int64
	src, dst int
	size     int
}

// driveBursty pushes a bursty pseudo-random load through the network for
// the given number of cycles: short bursts separated by idle stretches, so
// the active set repeatedly grows, drains, and empties mid-run. It returns
// the delivery log. check is called after every step.
func driveBursty(t *testing.T, n *Network, cycles int64, seed uint64, check func()) []delivery {
	t.Helper()
	var log []delivery
	n.OnReceive = func(now int64, p *router.Packet) {
		log = append(log, delivery{now, p.Src, p.Dst, p.Size})
	}
	trng := sim.NewRNG(seed)
	for c := int64(0); c < cycles; c++ {
		// ~12-cycle bursts every 64 cycles: mostly idle.
		if c%64 < 12 {
			for node := 0; node < n.Nodes(); node++ {
				if trng.Bernoulli(0.2) {
					dst := trng.Intn(n.Nodes())
					size := 1 + trng.Intn(4)
					p := n.NewPacket(node, dst, size, router.KindData)
					if n.Classes() > 1 {
						p.Class = trng.Intn(n.Classes())
					}
					n.Send(p)
				}
			}
		}
		n.Step()
		if check != nil {
			check()
		}
	}
	return log
}

// TestActiveSetMatchesFullScan drives two identically seeded networks —
// one on the legacy full-scan path (network scans and the routers' nested
// reference loops), one on the activity-tracked mask path — with the same
// bursty multi-flit load and requires bit-identical behaviour: every
// delivery at the same cycle, the same aggregate stats, the same network
// RNG end-state (Valiant draws an intermediate per packet, so a divergence
// in draw order shows immediately), conservation on both, and the same
// buffer fill, credit count and ownership of every VC of every router when
// the load stops mid-flight. The table walks the router's memory layout:
// power-of-two and odd VC counts (the flat index p*VCs+v), 16 VCs (5x16 >
// 64: the non-mask fallback; 3x16 on a ring: the mask path at full width),
// one-slot and four-slot flit rings, dateline and adaptive class ranges,
// both arbiters, iSLIP iterations and strict-priority partitions.
func TestActiveSetMatchesFullScan(t *testing.T) {
	mesh, torus, ring := topology.NewMesh(8, 8), topology.NewTorus(4, 4), topology.NewRing(8)
	rr, age := router.RoundRobin, router.AgeBased
	cases := []struct {
		topo *topology.Topology
		alg  routing.Algorithm
		rc   router.Config
	}{
		{mesh, routing.Valiant{}, router.Config{VCs: 4, BufDepth: 4, Arb: rr}},
		{mesh, routing.DOR{}, router.Config{VCs: 2, BufDepth: 1, Arb: rr}},
		{mesh, routing.DOR{}, router.Config{VCs: 3, BufDepth: 4, Arb: age, SAIterations: 2, Classes: 3}},
		{mesh, routing.DOR{}, router.Config{VCs: 3, BufDepth: 1, Arb: rr, Classes: 3}},
		{mesh, routing.MinimalAdaptive{}, router.Config{VCs: 3, BufDepth: 1, Arb: rr, SAIterations: 2}},
		{mesh, routing.DOR{}, router.Config{VCs: 16, BufDepth: 4, Arb: rr}},
		{mesh, routing.Valiant{}, router.Config{VCs: 16, BufDepth: 1, Arb: age, SAIterations: 2, Classes: 3}},
		{mesh, routing.MinimalAdaptive{}, router.Config{VCs: 16, BufDepth: 4, Arb: age, Classes: 3}},
		{torus, routing.DOR{}, router.Config{VCs: 2, BufDepth: 4, Arb: rr}},
		{torus, routing.DOR{}, router.Config{VCs: 3, BufDepth: 1, Arb: rr, SAIterations: 2}},
		{torus, routing.DOR{}, router.Config{VCs: 6, BufDepth: 4, Arb: rr, Classes: 3}},
		{torus, routing.MinimalAdaptive{}, router.Config{VCs: 3, BufDepth: 4, Arb: age}},
		{torus, routing.Valiant{}, router.Config{VCs: 16, BufDepth: 4, Arb: rr, SAIterations: 2, Classes: 3}},
		{ring, routing.DOR{}, router.Config{VCs: 2, BufDepth: 1, Arb: age}},
		{ring, routing.MinimalAdaptive{}, router.Config{VCs: 3, BufDepth: 4, Arb: rr, SAIterations: 2}},
		{ring, routing.Valiant{}, router.Config{VCs: 16, BufDepth: 4, Arb: rr, Classes: 3}},
	}
	for _, c := range cases {
		c.rc.Delay = 1
		name := fmt.Sprintf("%s/%s/v%d/q%d/%s/sa%d/c%d", c.topo.Name, c.alg.Name(),
			c.rc.VCs, c.rc.BufDepth, c.rc.Arb, c.rc.SAIterations, c.rc.Classes)
		t.Run(name, func(t *testing.T) {
			cfg := Config{Topo: c.topo, Routing: c.alg, Router: c.rc, Seed: 7}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			full, active := New(cfg), New(cfg)
			full.SetFullScan(true)

			logFull := driveBursty(t, full, 1480, 99, nil) // stops eight cycles into a burst
			logActive := driveBursty(t, active, 1480, 99, nil)

			if len(logFull) == 0 || len(logFull) != len(logActive) {
				t.Fatalf("deliveries: fullscan %d, activeset %d", len(logFull), len(logActive))
			}
			for i := range logFull {
				if logFull[i] != logActive[i] {
					t.Fatalf("delivery %d differs: fullscan %+v, activeset %+v", i, logFull[i], logActive[i])
				}
			}
			fs, fa, ffi, ffe := full.Stats()
			as, aa, afi, afe := active.Stats()
			if fs != as || fa != aa || ffi != afi || ffe != afe {
				t.Fatalf("stats differ: fullscan (%d %d %d %d), activeset (%d %d %d %d)",
					fs, fa, ffi, ffe, as, aa, afi, afe)
			}
			if g, w := active.RNG().Uint64(), full.RNG().Uint64(); g != w {
				t.Fatalf("network RNG diverged: activeset next draw %d, fullscan %d", g, w)
			}
			for _, n := range []*Network{full, active} {
				if err := n.CheckConservation(); err != nil {
					t.Fatal(err)
				}
			}
			inside := 0
			for id := 0; id < c.topo.N; id++ {
				rf, ra := full.Router(id), active.Router(id)
				for p := 0; p < c.topo.Ports(); p++ {
					for v := 0; v < c.rc.VCs; v++ {
						inside += ra.InBufLen(p, v)
						if rf.InBufLen(p, v) != ra.InBufLen(p, v) || rf.OutCredits(p, v) != ra.OutCredits(p, v) ||
							rf.OutOwned(p, v) != ra.OutOwned(p, v) {
							t.Fatalf("router %d port %d vc %d: fullscan buf %d credits %d owned %v, activeset buf %d credits %d owned %v",
								id, p, v, rf.InBufLen(p, v), rf.OutCredits(p, v), rf.OutOwned(p, v),
								ra.InBufLen(p, v), ra.OutCredits(p, v), ra.OutOwned(p, v))
						}
					}
				}
			}
			if inside == 0 {
				t.Fatal("the load stopped on an empty network: the per-VC comparison compared nothing")
			}
		})
	}
}

// activeBit reports whether router id is in its tile's active set.
func (n *Network) activeBit(id int) bool {
	tl := &n.tiles[n.tileOf[id]]
	bit := id - tl.lo
	return tl.active[bit>>6]&(1<<uint(bit&63)) != 0
}

// checkActiveInvariant asserts the invariant the active-set optimization
// rests on, across however many tiles the network has: every non-idle
// router is in its tile's active set, the per-tile counts match the
// bitmaps, and every node with a non-empty source queue has its
// srcPending bit set.
func checkActiveInvariant(t *testing.T, n *Network) {
	t.Helper()
	count := 0
	for i, r := range n.routers {
		bit := n.activeBit(i)
		if bit {
			count++
		}
		if !r.Idle() && !bit {
			t.Fatalf("cycle %d: router %d busy (occ=%d inflight=%d credits pending) but not in active set",
				n.Now(), i, r.Occupancy(), r.InFlight())
		}
	}
	if count != n.ActiveCount() {
		t.Fatalf("cycle %d: ActiveCount = %d, bitmaps have %d", n.Now(), n.ActiveCount(), count)
	}
	for node := range n.routers {
		tl := &n.tiles[n.tileOf[node]]
		bit := node - tl.lo
		if n.SourceQueueLen(node) > 0 && tl.srcPending[bit>>6]&(1<<uint(bit&63)) == 0 {
			t.Fatalf("cycle %d: node %d has queued flits but no srcPending bit", n.Now(), node)
		}
	}
}

// TestActiveSetInvariant checks, after every cycle, the invariant the
// active-set optimization rests on: every router with buffered flits,
// pipeline flits, or pending credits is in the active set, and every node
// with a non-empty source queue has its srcPending bit set. A violated
// invariant means a router could make progress while being skipped.
func TestActiveSetInvariant(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	n := New(Config{
		Topo:    topo,
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    3,
	})
	driveBursty(t, n, 2000, 5, func() { checkActiveInvariant(t, n) })

	// Drain completely: the set must empty, making Quiescent O(tiles)-true.
	end, drained := n.RunUntilQuiescent(100000)
	if !drained {
		t.Fatalf("network failed to drain by cycle %d", end)
	}
	if n.ActiveCount() != 0 {
		t.Fatalf("drained network has activeCount = %d", n.ActiveCount())
	}
	for ti := range n.tiles {
		for w, word := range n.tiles[ti].active {
			if word != 0 {
				t.Fatalf("drained network has active bits in tile %d word %d: %#x", ti, w, word)
			}
		}
	}
	if !n.Quiescent() {
		t.Fatal("drained network not Quiescent")
	}
}

// TestSkipToAdvancesClock checks the fast-forward entry points: SkipTo on
// a quiescent network jumps the clock, and panics on a busy one.
func TestSkipToAdvancesClock(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n := New(Config{
		Topo:    topo,
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    1,
	})
	n.SkipTo(500)
	if n.Now() != 500 {
		t.Fatalf("Now = %d after SkipTo(500)", n.Now())
	}
	n.Send(n.NewPacket(0, 15, 2, router.KindData))
	defer func() {
		if recover() == nil {
			t.Fatal("SkipTo on a non-quiescent network did not panic")
		}
	}()
	n.SkipTo(1000)
}
