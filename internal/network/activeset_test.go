package network

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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

var updateSteppingDigests = flag.Bool("update-stepping-digests", false, "rewrite testdata/stepping_digests.json from this tree")

// steppingCase is one row of the stepping matrix. sa only names the row:
// the rows recorded with two switch-allocation passes keep their names and
// digests, because a second pass never matched anything.
type steppingCase struct {
	topo *topology.Topology
	alg  routing.Algorithm
	rc   router.Config
	sa   int
}

func (c steppingCase) name() string {
	return fmt.Sprintf("%s/%s/v%d/q%d/%s/sa%d/c%d", c.topo.Name, c.alg.Name(),
		c.rc.VCs, c.rc.BufDepth, c.rc.Arb, c.sa, c.rc.Classes)
}

// steppingMatrix walks the router's memory layout: power-of-two and odd VC
// counts (the flat index p*VCs+v), 16 VCs (5x16 > 64: the nested-loop
// phases; 3x16 on a ring: the mask path at full width), one-slot and
// four-slot flit rings, dateline and adaptive class ranges, both arbiters
// and strict-priority partitions.
func steppingMatrix() []steppingCase {
	mesh, torus, ring := topology.NewMesh(8, 8), topology.NewTorus(4, 4), topology.NewRing(8)
	rr, age := router.RoundRobin, router.AgeBased
	cases := []steppingCase{
		{mesh, routing.Valiant{}, router.Config{VCs: 4, BufDepth: 4, Arb: rr}, 0},
		{mesh, routing.DOR{}, router.Config{VCs: 2, BufDepth: 1, Arb: rr}, 0},
		{mesh, routing.DOR{}, router.Config{VCs: 3, BufDepth: 4, Arb: age, Classes: 3}, 2},
		{mesh, routing.DOR{}, router.Config{VCs: 3, BufDepth: 1, Arb: rr, Classes: 3}, 0},
		{mesh, routing.MinimalAdaptive{}, router.Config{VCs: 3, BufDepth: 1, Arb: rr}, 2},
		{mesh, routing.DOR{}, router.Config{VCs: 16, BufDepth: 4, Arb: rr}, 0},
		{mesh, routing.Valiant{}, router.Config{VCs: 16, BufDepth: 1, Arb: age, Classes: 3}, 2},
		{mesh, routing.MinimalAdaptive{}, router.Config{VCs: 16, BufDepth: 4, Arb: age, Classes: 3}, 0},
		{torus, routing.DOR{}, router.Config{VCs: 2, BufDepth: 4, Arb: rr}, 0},
		{torus, routing.DOR{}, router.Config{VCs: 3, BufDepth: 1, Arb: rr}, 2},
		{torus, routing.DOR{}, router.Config{VCs: 6, BufDepth: 4, Arb: rr, Classes: 3}, 0},
		{torus, routing.MinimalAdaptive{}, router.Config{VCs: 3, BufDepth: 4, Arb: age}, 0},
		{torus, routing.Valiant{}, router.Config{VCs: 16, BufDepth: 4, Arb: rr, Classes: 3}, 2},
		{ring, routing.DOR{}, router.Config{VCs: 2, BufDepth: 1, Arb: age}, 0},
		{ring, routing.MinimalAdaptive{}, router.Config{VCs: 3, BufDepth: 4, Arb: rr}, 2},
		{ring, routing.Valiant{}, router.Config{VCs: 16, BufDepth: 4, Arb: rr, Classes: 3}, 0},
	}
	for i := range cases {
		cases[i].rc.Delay = 1
	}
	return cases
}

// steppingDigest drives one row with the bursty multi-flit load, the
// active-set invariant checked after every cycle, and returns the SHA-256
// over everything the run leaves behind: every delivery with its cycle, the
// aggregate stats, the network RNG's next draw (Valiant draws an
// intermediate per packet, so a divergence in draw order shows
// immediately), and the buffer fill, credit count and ownership of every
// VC of every router when the load stops mid-flight.
func steppingDigest(t *testing.T, c steppingCase, shards int) string {
	t.Helper()
	cfg := Config{Topo: c.topo, Routing: c.alg, Router: c.rc, Seed: 7, Shards: shards}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := New(cfg)
	defer n.Close()
	log := driveBursty(t, n, 1480, 99, func() { checkActiveInvariant(t, n) }) // stops eight cycles into a burst
	if len(log) == 0 {
		t.Fatal("no deliveries")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, d := range log {
		fmt.Fprintln(h, d.cycle, d.src, d.dst, d.size)
	}
	sent, arrived, injected, ejected := n.Stats()
	fmt.Fprintln(h, sent, arrived, injected, ejected)
	fmt.Fprintln(h, n.RNG().Uint64())
	inside := 0
	for id := 0; id < c.topo.N; id++ {
		r := n.Router(id)
		// An output VC is owned exactly while an input VC holds its grant.
		owned := map[[2]int]bool{}
		for _, s := range r.StuckVCs() {
			if s.Granted {
				owned[[2]int{s.OutPort, s.OutVC}] = true
			}
		}
		for p := 0; p < c.topo.Ports(); p++ {
			for v := 0; v < c.rc.VCs; v++ {
				inside += r.InBufLen(p, v)
				fmt.Fprintln(h, r.InBufLen(p, v), r.OutCredits(p, v), owned[[2]int{p, v}])
			}
		}
	}
	if inside == 0 {
		t.Fatal("the load stopped on an empty network: the per-VC state digests nothing")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestActiveSetMatchesFullScan compares every row's steppingDigest with
// testdata/stepping_digests.json, recorded (-update-stepping-digests) on
// the last commit that had the full scans — every router stepped, every
// port polled and every source queue visited each cycle, the routers on
// their nested-loop phases — from a network running them. Equality is
// bit-identity of the active-set paths with that reference, across commits;
// the invariant checked after every cycle is why it holds: an empty
// router's Step and an empty queue's injectNode are no-ops, and a delay line
// holds nothing that is not yet due, so popping what is due and visiting
// exactly the routers that buffer flits and the pending nodes in ascending
// order is the full scan.
func TestActiveSetMatchesFullScan(t *testing.T) {
	got := map[string]string{}
	for _, c := range steppingMatrix() {
		t.Run(c.name(), func(t *testing.T) {
			got[c.name()] = steppingDigest(t, c, 1)
		})
	}
	const golden = "testdata/stepping_digests.json"
	if *updateSteppingDigests {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := steppingDigests(t)
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the matrix has %d rows", golden, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
}

// steppingDigests loads the committed digest file.
func steppingDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/stepping_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// activeBit reports whether router id is in its tile's active set.
func (n *Network) activeBit(id int) bool {
	tl := &n.tiles[n.tileOf[id]]
	bit := id - tl.lo
	return tl.active[bit>>6]&(1<<uint(bit&63)) != 0
}

// checkActiveInvariant asserts the invariant the active-set optimization
// rests on, across however many tiles the network has: every router that
// buffers flits is in its tile's active set, the per-tile counts match the
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
			t.Fatalf("cycle %d: router %d buffers %d flits but is not in the active set", n.Now(), i, r.Occupancy())
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
// active-set optimization rests on: every router with buffered flits is in
// the active set, and every node
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
