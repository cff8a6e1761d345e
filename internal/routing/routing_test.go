package routing

import (
	"testing"
	"testing/quick"

	"noceval/internal/sim"
	"noceval/internal/topology"
)

// walk follows an algorithm's first candidate from src to dst, returning
// the hop count; it fails the test on livelock or invalid candidates.
func walk(t *testing.T, topo *topology.Topology, alg Algorithm, rng *sim.RNG, src, dst int) int {
	t.Helper()
	st := NewState(alg.PickIntermediate(topo, rng, src, dst))
	st.ArriveAt(src)
	cur := src
	hops := 0
	var buf []Candidate
	for {
		buf = alg.Candidates(topo, cur, dst, &st, buf[:0])
		if len(buf) == 0 {
			t.Fatalf("%s: no candidates at %d for dst %d", alg.Name(), cur, dst)
		}
		c := buf[0]
		if c.Port == topo.LocalPort() {
			if cur != dst {
				t.Fatalf("%s: ejected at %d, dst %d", alg.Name(), cur, dst)
			}
			return hops
		}
		link := topo.LinkAt(cur, c.Port)
		if !link.Connected() {
			t.Fatalf("%s: candidate uses unconnected port %d at node %d", alg.Name(), c.Port, cur)
		}
		if c.Class != AnyClass {
			if nc := alg.NumClasses(topo); c.Class < 0 || c.Class >= nc {
				t.Fatalf("%s: class %d out of [0,%d)", alg.Name(), c.Class, nc)
			}
		}
		alg.Committed(topo, &st, c.Class)
		st.Traverse(link)
		cur = link.To
		st.ArriveAt(cur)
		hops++
		if hops > 100 {
			t.Fatalf("%s: livelock routing %d -> %d", alg.Name(), src, dst)
		}
	}
}

func TestAllAlgorithmsReachAllPairs(t *testing.T) {
	topos := []*topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewTorus(4, 4),
		topology.NewRing(16),
	}
	rng := sim.NewRNG(1)
	for _, topo := range topos {
		for _, alg := range []Algorithm{DOR{}, Valiant{}, MinimalAdaptive{}, ROMM{}} {
			for src := 0; src < topo.N; src += 3 {
				for dst := 0; dst < topo.N; dst += 5 {
					walk(t, topo, alg, rng, src, dst)
				}
			}
		}
	}
}

func TestMinimalAlgorithmsTakeMinimalPaths(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	rng := sim.NewRNG(2)
	for _, alg := range []Algorithm{DOR{}, MinimalAdaptive{}, ROMM{}} {
		err := quick.Check(func(a, b int) bool {
			src, dst := abs(a)%topo.N, abs(b)%topo.N
			return walk(t, topo, alg, rng, src, dst) == topo.Distance(src, dst)
		}, &quick.Config{MaxCount: 200})
		if err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestDORPathIsDimensionOrdered(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	// From (1,1)=9 to (5,4)=37: all +x hops must precede +y hops.
	st := NewState(-1)
	cur := 9
	sawY := false
	var buf []Candidate
	for cur != 37 {
		buf = (DOR{}).Candidates(topo, cur, 37, &st, buf[:0])
		link := topo.LinkAt(cur, buf[0].Port)
		if link.Dim == 1 {
			sawY = true
		} else if sawY {
			t.Fatal("x-hop after y-hop in DOR")
		}
		st.Traverse(link)
		cur = link.To
	}
}

func TestValiantIntermediateDistribution(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	rng := sim.NewRNG(3)
	seen := map[int]int{}
	for i := 0; i < 16000; i++ {
		mid := (Valiant{}).PickIntermediate(topo, rng, 0, 15)
		seen[mid]++
	}
	if len(seen) != 16 {
		t.Fatalf("valiant covered %d/16 intermediates", len(seen))
	}
	for n, c := range seen {
		f := float64(c) / 16000
		if f < 0.04 || f > 0.085 {
			t.Errorf("intermediate %d frequency %.3f, want ~1/16", n, f)
		}
	}
}

func TestROMMIntermediateInMinimalQuadrant(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	rng := sim.NewRNG(4)
	src, dst := topo.NodeAt([]int{1, 2}), topo.NodeAt([]int{5, 6})
	for i := 0; i < 2000; i++ {
		mid := (ROMM{}).PickIntermediate(topo, rng, src, dst)
		x, y := topo.CoordOf(mid, 0), topo.CoordOf(mid, 1)
		if x < 1 || x > 5 || y < 2 || y > 6 {
			t.Fatalf("ROMM intermediate (%d,%d) outside quadrant [1,5]x[2,6]", x, y)
		}
	}
	// ROMM paths stay minimal: src->mid->dst length equals src->dst.
	err := quick.Check(func(a, b int) bool {
		s, d := abs(a)%topo.N, abs(b)%topo.N
		mid := (ROMM{}).PickIntermediate(topo, rng, s, d)
		return topo.Distance(s, mid)+topo.Distance(mid, d) == topo.Distance(s, d)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestNumClasses(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	torus := topology.NewTorus(4, 4)
	cases := []struct {
		alg        Algorithm
		mesh, wrap int
	}{
		{DOR{}, 1, 2},
		{Valiant{}, 2, 4},
		{ROMM{}, 2, 4},
		{MinimalAdaptive{}, 2, 3},
	}
	for _, tc := range cases {
		if got := tc.alg.NumClasses(mesh); got != tc.mesh {
			t.Errorf("%s mesh classes = %d, want %d", tc.alg.Name(), got, tc.mesh)
		}
		if got := tc.alg.NumClasses(torus); got != tc.wrap {
			t.Errorf("%s torus classes = %d, want %d", tc.alg.Name(), got, tc.wrap)
		}
	}
}

func TestDatelineClassSwitch(t *testing.T) {
	topo := topology.NewRing(8)
	// 0 -> 5: minimal is minus direction through the 0->7 wraparound.
	st := NewState(-1)
	st.ArriveAt(0)
	var buf []Candidate
	buf = (DOR{}).Candidates(topo, 0, 5, &st, buf[:0])
	if buf[0].Class != 1 {
		t.Errorf("first hop crosses dateline, class = %d, want 1", buf[0].Class)
	}
	link := topo.LinkAt(0, buf[0].Port)
	if !link.Wrap {
		t.Fatal("expected wraparound link")
	}
	st.Traverse(link)
	// After crossing, subsequent hops stay in the upper class.
	buf = (DOR{}).Candidates(topo, link.To, 5, &st, buf[:0])
	if buf[0].Class != 1 {
		t.Errorf("post-dateline class = %d, want 1", buf[0].Class)
	}
}

func TestNoDatelineClassOnMesh(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	st := NewState(-1)
	var buf []Candidate
	buf = (DOR{}).Candidates(topo, 0, 63, &st, buf[:0])
	if buf[0].Class != 0 {
		t.Errorf("mesh DOR class = %d, want 0", buf[0].Class)
	}
}

func TestValiantPhaseClasses(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	alg := Valiant{}
	st := NewState(27) // force a known intermediate
	st.ArriveAt(0)
	var buf []Candidate
	buf = alg.Candidates(topo, 0, 63, &st, buf[:0])
	if buf[0].Class != 0 {
		t.Errorf("phase-0 class = %d, want 0", buf[0].Class)
	}
	st.ArriveAt(27) // reach the intermediate
	if st.Phase != 1 {
		t.Fatal("phase did not advance at intermediate")
	}
	buf = alg.Candidates(topo, 27, 63, &st, buf[:0])
	if buf[0].Class != 1 {
		t.Errorf("phase-1 class = %d, want 1", buf[0].Class)
	}
}

func TestMAEscapeAndAdaptiveCandidates(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	st := NewState(-1)
	var buf []Candidate
	// From (0,0) to (3,3): two productive dims -> 2 adaptive + 1 escape.
	buf = (MinimalAdaptive{}).Candidates(topo, 0, topo.NodeAt([]int{3, 3}), &st, buf[:0])
	if len(buf) != 3 {
		t.Fatalf("MA candidates = %d, want 3", len(buf))
	}
	adaptive, escape := 0, 0
	for _, c := range buf {
		if c.Class == 1 {
			adaptive++
		} else if c.Class == 0 {
			escape++
		}
	}
	if adaptive != 2 || escape != 1 {
		t.Errorf("MA candidate mix adaptive=%d escape=%d", adaptive, escape)
	}
	// Single productive dimension: 1 adaptive + 1 escape.
	buf = (MinimalAdaptive{}).Candidates(topo, 0, 7, &st, buf[:0])
	if len(buf) != 2 {
		t.Errorf("single-dim MA candidates = %d, want 2", len(buf))
	}
}

func TestIntermediateEqualToSourceSkipsPhase(t *testing.T) {
	st := NewState(5)
	st.ArriveAt(5)
	if st.Phase != 1 {
		t.Error("intermediate == source did not complete phase 0")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"dor", "val", "ma", "romm"} {
		alg, err := ByName(name)
		if err != nil || alg.Name() != name {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("xy"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestNextHopsMatchCandidates: a memoised row answers exactly what the
// algorithm does for every (router, destination) pair of the meshes the
// repository runs, ejection included, and NextHops declines every
// algorithm or topology whose routes read per-packet state, and every
// network above the size bound.
func TestNextHopsMatchCandidates(t *testing.T) {
	for _, k := range [][2]int{{2, 2}, {4, 4}, {4, 8}, {8, 8}, {16, 16}} {
		topo := topology.NewMesh(k[0], k[1])
		for cur := 0; cur < topo.N; cur++ {
			row, cands := NextHops(DOR{}, topo, cur)
			if len(row) != topo.N {
				t.Fatalf("%s: router %d row has %d entries, want %d", topo.Name, cur, len(row), topo.N)
			}
			for dst := 0; dst < topo.N; dst++ {
				st := NewState(-1)
				want := DOR{}.Candidates(topo, cur, dst, &st, nil)
				if got := cands[row[dst]]; len(want) != 1 || got != want[0] {
					t.Fatalf("%s: router %d dst %d: row %+v, Candidates %+v", topo.Name, cur, dst, got, want)
				}
			}
			if got := cands[row[cur]]; got != (Candidate{Port: topo.LocalPort(), Class: AnyClass}) {
				t.Fatalf("%s: router %d ejects with %+v", topo.Name, cur, got)
			}
		}
	}
	mesh := topology.NewMesh(4, 4)
	for _, c := range []struct {
		topo *topology.Topology
		alg  Algorithm
	}{
		{topology.NewTorus(4, 4), DOR{}},
		{topology.NewRing(8), DOR{}},
		{mesh, Valiant{}},
		{mesh, ROMM{}},
		{mesh, MinimalAdaptive{}},
		{topology.NewMesh(32, 33), DOR{}}, // 1056 nodes, above the bound
	} {
		if row, cands := NextHops(c.alg, c.topo, 0); row != nil || cands != nil {
			t.Errorf("%s/%s: NextHops memoised a route that is not (router, destination) only", c.topo.Name, c.alg.Name())
		}
	}
	if row, _ := NextHops(DOR{}, topology.NewMesh(32, 32), 0); len(row) != 1024 {
		t.Errorf("mesh32x32 (1024 nodes, the bound): row of %d entries, want 1024", len(row))
	}
}
