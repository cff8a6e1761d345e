package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(8, 8)
	if m.N != 64 || m.Radix != 4 || m.Dims != 2 {
		t.Fatalf("mesh geometry: %+v", m)
	}
	if m.LocalPort() != 4 || m.Ports() != 5 {
		t.Error("port numbering broken")
	}
	// Corner node 0 has exactly two connected ports (+x, +y).
	connected := 0
	for p := 0; p < m.Radix; p++ {
		if m.LinkAt(0, p).Connected() {
			connected++
		}
	}
	if connected != 2 {
		t.Errorf("corner has %d connected ports, want 2", connected)
	}
	// Center node has four.
	center := m.NodeAt([]int{4, 4})
	connected = 0
	for p := 0; p < m.Radix; p++ {
		if m.LinkAt(center, p).Connected() {
			connected++
		}
	}
	if connected != 4 {
		t.Errorf("center has %d connected ports, want 4", connected)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	for _, topo := range []*Topology{NewMesh(8, 8), NewTorus(4, 4), NewRing(16), NewMesh(16, 16)} {
		for n := 0; n < topo.N; n++ {
			if got := topo.NodeAt(topo.Coord(n)); got != n {
				t.Fatalf("%s: NodeAt(Coord(%d)) = %d", topo.Name, n, got)
			}
			for d := 0; d < topo.Dims; d++ {
				if topo.CoordOf(n, d) != topo.Coord(n)[d] {
					t.Fatalf("%s: CoordOf(%d, %d) mismatch", topo.Name, n, d)
				}
			}
		}
	}
}

func TestLinkReciprocity(t *testing.T) {
	// Property: following a link and its ToPort back returns to the start.
	for _, topo := range []*Topology{NewMesh(8, 8), NewTorus(8, 8), NewRing(64)} {
		for n := 0; n < topo.N; n++ {
			for p := 0; p < topo.Radix; p++ {
				l := topo.LinkAt(n, p)
				if !l.Connected() {
					continue
				}
				// The reverse link leaves the neighbor on the opposite
				// direction port of the same dimension.
				back := topo.LinkAt(l.To, p^1)
				if back.To != n {
					t.Fatalf("%s: link %d.%d -> %d not reciprocated (%d)", topo.Name, n, p, l.To, back.To)
				}
				if back.ToPort != p {
					t.Fatalf("%s: reverse ToPort = %d, want %d", topo.Name, back.ToPort, p)
				}
			}
		}
	}
}

func TestMeshDistance(t *testing.T) {
	m := NewMesh(8, 8)
	if d := m.Distance(0, 63); d != 14 {
		t.Errorf("corner distance = %d, want 14", d)
	}
	if d := m.Distance(0, 0); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if m.Diameter() != 14 {
		t.Errorf("diameter = %d", m.Diameter())
	}
}

func TestTorusDistanceUsesWraparound(t *testing.T) {
	to := NewTorus(8, 8)
	if d := to.Distance(0, 7); d != 1 {
		t.Errorf("wrap distance = %d, want 1", d)
	}
	if to.Diameter() != 8 {
		t.Errorf("torus diameter = %d, want 8", to.Diameter())
	}
	r := NewRing(64)
	if d := r.Distance(0, 63); d != 1 {
		t.Errorf("ring wrap distance = %d", d)
	}
	if r.Diameter() != 32 {
		t.Errorf("ring diameter = %d, want 32", r.Diameter())
	}
}

func TestDistanceSymmetry(t *testing.T) {
	for _, topo := range []*Topology{NewMesh(8, 8), NewTorus(8, 8), NewRing(32)} {
		err := quick.Check(func(a, b int) bool {
			a, b = abs(a)%topo.N, abs(b)%topo.N
			return topo.Distance(a, b) == topo.Distance(b, a)
		}, &quick.Config{MaxCount: 200})
		if err != nil {
			t.Errorf("%s: %v", topo.Name, err)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestWrapLinksMarked(t *testing.T) {
	to := NewTorus(4, 4)
	wraps := 0
	for n := 0; n < to.N; n++ {
		for p := 0; p < to.Radix; p++ {
			if to.LinkAt(n, p).Wrap {
				wraps++
			}
		}
	}
	// 4 rows x 2 directions + 4 cols x 2 directions = 16 wraparound links.
	if wraps != 16 {
		t.Errorf("wrap links = %d, want 16", wraps)
	}
	m := NewMesh(4, 4)
	for n := 0; n < m.N; n++ {
		for p := 0; p < m.Radix; p++ {
			if m.LinkAt(n, p).Wrap {
				t.Fatal("mesh has a wrap link")
			}
		}
	}
}

func TestTorusLinkDelay(t *testing.T) {
	to := NewTorus(8, 8)
	if d := to.LinkAt(0, PlusPort(0)).Delay; d != 2 {
		t.Errorf("folded torus link delay = %d, want 2", d)
	}
	m := NewMesh(8, 8)
	if d := m.LinkAt(0, PlusPort(0)).Delay; d != 1 {
		t.Errorf("mesh link delay = %d, want 1", d)
	}
}

func TestDirTo(t *testing.T) {
	m := NewMesh(8, 8)
	if dir, hops := m.DirTo(0, 2, 5); dir != 1 || hops != 3 {
		t.Errorf("mesh DirTo(2,5) = %d,%d", dir, hops)
	}
	if dir, hops := m.DirTo(0, 5, 2); dir != -1 || hops != 3 {
		t.Errorf("mesh DirTo(5,2) = %d,%d", dir, hops)
	}
	to := NewTorus(8, 8)
	if dir, hops := to.DirTo(0, 0, 6); dir != -1 || hops != 2 {
		t.Errorf("torus DirTo(0,6) = %d,%d, want wrap -1,2", dir, hops)
	}
	// Tie (distance 4 both ways) resolves to plus deterministically.
	if dir, hops := to.DirTo(0, 0, 4); dir != 1 || hops != 4 {
		t.Errorf("torus tie DirTo(0,4) = %d,%d, want +1,4", dir, hops)
	}
}

func TestBisection(t *testing.T) {
	if b := NewMesh(8, 8).BisectionChannels(); b != 16 {
		t.Errorf("mesh bisection = %d, want 16", b)
	}
	if b := NewTorus(8, 8).BisectionChannels(); b != 32 {
		t.Errorf("torus bisection = %d, want 32", b)
	}
}

func TestByName(t *testing.T) {
	for name, wantN := range map[string]int{
		"mesh8x8":   64,
		"mesh16x16": 256,
		"torus4x4":  16,
		"ring64":    64,
	} {
		topo, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if topo.N != wantN {
			t.Errorf("%s: N = %d, want %d", name, topo.N, wantN)
		}
	}
	for _, bad := range []string{"hypercube8", "mesh8", "ringX", ""} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestAverageDistance(t *testing.T) {
	mean := func(topo *Topology) float64 {
		sum := 0
		for a := 0; a < topo.N; a++ {
			for b := 0; b < topo.N; b++ {
				sum += topo.Distance(a, b)
			}
		}
		return float64(sum) / float64(topo.N*topo.N)
	}
	// k-ary 2-mesh uniform (self included): 2 * (k^2-1)/(3k) per dimension pair.
	want := 2.0 * 63.0 / 24.0 // 5.25
	if got := mean(NewMesh(8, 8)); got < want-0.001 || got > want+0.001 {
		t.Errorf("mesh avg distance = %v, want %v", got, want)
	}
	// Torus: 2 * k/4 = 4 for k=8.
	if got := mean(NewTorus(8, 8)); got < 3.9 || got > 4.1 {
		t.Errorf("torus avg distance = %v, want ~4", got)
	}
}

func TestPortHelpers(t *testing.T) {
	if PlusPort(1) != 2 || MinusPort(1) != 3 {
		t.Error("port helpers broken")
	}
}
