// Package topology builds the network graphs evaluated in the paper:
// k-ary 2-cube meshes (8x8, 16x16, 4x4), folded tori, and rings, all members
// of the k-ary n-cube family.
//
// Port convention: a router in an n-dimensional network has 2n network
// ports; port 2d is the "plus" direction of dimension d and port 2d+1 the
// "minus" direction. Meshes leave edge ports unconnected. Injection and
// ejection use one extra local port with index Radix (see LocalPort).
package topology

import (
	"fmt"
	"strings"
)

// Kind identifies the topology family.
type Kind int

// Topology families evaluated in the paper.
const (
	MeshKind Kind = iota
	TorusKind
	RingKind
)

// String returns the lower-case family name.
func (k Kind) String() string {
	switch k {
	case MeshKind:
		return "mesh"
	case TorusKind:
		return "torus"
	case RingKind:
		return "ring"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Link is one unidirectional channel leaving a router port.
type Link struct {
	To     int   // destination node, or -1 when the port is unconnected
	ToPort int   // input port index at the destination node
	Delay  int64 // channel traversal latency in cycles
	Dim    int   // dimension this channel travels in
	Wrap   bool  // true for wraparound (dateline-crossing) channels
}

// Connected reports whether the link leads anywhere.
func (l Link) Connected() bool { return l.To >= 0 }

// Topology is an immutable network graph.
type Topology struct {
	Kind  Kind
	Name  string
	N     int   // number of nodes (= routers; one terminal per router)
	Dims  int   // number of dimensions
	K     []int // nodes per dimension, len == Dims
	Radix int   // network ports per router (2*Dims)

	links [][]Link // links[node][port]
	// coords caches every node's per-dimension coordinate (row-major,
	// node*Dims+dim): routing consults coordinates for each head flit at
	// each hop, and the divide chain in the direct computation is
	// measurable there.
	coords []int32
}

// LocalPort returns the index of the injection/ejection port, one past the
// last network port.
func (t *Topology) LocalPort() int { return t.Radix }

// Ports returns the total number of router ports including the local port.
func (t *Topology) Ports() int { return t.Radix + 1 }

// LinkAt returns the link leaving the given node and network port.
func (t *Topology) LinkAt(node, port int) Link { return t.links[node][port] }

// PlusPort returns the output port for the plus direction of dimension d.
func PlusPort(d int) int { return 2 * d }

// MinusPort returns the output port for the minus direction of dimension d.
func MinusPort(d int) int { return 2*d + 1 }

// Coord returns the per-dimension coordinates of a node.
func (t *Topology) Coord(node int) []int {
	c := make([]int, t.Dims)
	for d := 0; d < t.Dims; d++ {
		c[d] = node % t.K[d]
		node /= t.K[d]
	}
	return c
}

// CoordOf returns the coordinate of node in one dimension without
// allocating.
func (t *Topology) CoordOf(node, dim int) int {
	if t.coords != nil {
		return int(t.coords[node*t.Dims+dim])
	}
	for d := 0; d < dim; d++ {
		node /= t.K[d]
	}
	return node % t.K[dim]
}

// NodeAt returns the node index for the given coordinates.
func (t *Topology) NodeAt(coord []int) int {
	node, stride := 0, 1
	for d := 0; d < t.Dims; d++ {
		node += coord[d] * stride
		stride *= t.K[d]
	}
	return node
}

// wrap reports whether this topology has wraparound channels.
func (t *Topology) wrapped() bool { return t.Kind != MeshKind }

// DirTo returns the hop direction and count from coordinate a to b in
// dimension dim: dir is +1, -1 or 0, hops is the number of channel
// traversals in that direction. On a wrapped topology the shorter way
// around is chosen; exact ties (distance k/2 both ways) split by source
// parity — deterministic for reproducibility, yet balanced across the two
// directions so tied pairs do not all pile onto the plus channels.
func (t *Topology) DirTo(dim, a, b int) (dir, hops int) {
	if a == b {
		return 0, 0
	}
	k := t.K[dim]
	if !t.wrapped() {
		if b > a {
			return +1, b - a
		}
		return -1, a - b
	}
	plus := (b - a + k) % k
	minus := (a - b + k) % k
	switch {
	case plus < minus:
		return +1, plus
	case minus < plus:
		return -1, minus
	case a%2 == 0:
		return +1, plus
	default:
		return -1, minus
	}
}

// Distance returns the minimal hop count between two nodes.
func (t *Topology) Distance(a, b int) int {
	total := 0
	for d := 0; d < t.Dims; d++ {
		_, h := t.DirTo(d, t.CoordOf(a, d), t.CoordOf(b, d))
		total += h
	}
	return total
}

// BisectionChannels returns the number of unidirectional channels crossing
// the bisection of dimension 0.
func (t *Topology) BisectionChannels() int {
	k := t.K[0]
	other := t.N / k
	if t.wrapped() {
		return 4 * other // two cut positions, two directions each
	}
	return 2 * other // one cut, two directions
}

// String describes the topology, e.g. "8x8 mesh".
func (t *Topology) String() string { return t.Name }

// newKAryNCube builds a k-ary n-cube. wrap selects torus-style wraparound
// channels; wrapDelay is the channel latency of every link (folded tori use
// 2-cycle channels per the paper, meshes 1-cycle).
func newKAryNCube(kind Kind, name string, k []int, wrap bool, delay int64) *Topology {
	n := 1
	for _, kd := range k {
		if kd < 2 {
			panic(fmt.Sprintf("topology: dimension size %d < 2", kd))
		}
		n *= kd
	}
	t := &Topology{
		Kind:  kind,
		Name:  name,
		N:     n,
		Dims:  len(k),
		K:     append([]int(nil), k...),
		Radix: 2 * len(k),
	}
	t.links = make([][]Link, n)
	t.coords = make([]int32, n*t.Dims)
	for node := 0; node < n; node++ {
		for d, c := range t.Coord(node) {
			t.coords[node*t.Dims+d] = int32(c)
		}
	}
	for node := 0; node < n; node++ {
		t.links[node] = make([]Link, t.Radix)
		coord := t.Coord(node)
		for d := 0; d < t.Dims; d++ {
			kd := t.K[d]
			// Plus direction.
			plus := Link{To: -1, Dim: d, Delay: delay}
			if coord[d]+1 < kd {
				nc := append([]int(nil), coord...)
				nc[d]++
				plus = Link{To: t.NodeAt(nc), ToPort: MinusPort(d), Dim: d, Delay: delay}
			} else if wrap {
				nc := append([]int(nil), coord...)
				nc[d] = 0
				plus = Link{To: t.NodeAt(nc), ToPort: MinusPort(d), Dim: d, Delay: delay, Wrap: true}
			}
			t.links[node][PlusPort(d)] = plus
			// Minus direction.
			minus := Link{To: -1, Dim: d, Delay: delay}
			if coord[d] > 0 {
				nc := append([]int(nil), coord...)
				nc[d]--
				minus = Link{To: t.NodeAt(nc), ToPort: PlusPort(d), Dim: d, Delay: delay}
			} else if wrap {
				nc := append([]int(nil), coord...)
				nc[d] = kd - 1
				minus = Link{To: t.NodeAt(nc), ToPort: PlusPort(d), Dim: d, Delay: delay, Wrap: true}
			}
			t.links[node][MinusPort(d)] = minus
		}
	}
	return t
}

// NewMesh returns a kx x ky 2D mesh with 1-cycle channels.
func NewMesh(kx, ky int) *Topology {
	return newKAryNCube(MeshKind, fmt.Sprintf("%dx%d mesh", kx, ky), []int{kx, ky}, false, 1)
}

// NewTorus returns a kx x ky folded 2D torus. Folding doubles the physical
// channel length, so every channel has 2-cycle latency (the paper's source
// of the torus's higher zero-load latency).
func NewTorus(kx, ky int) *Topology {
	return newKAryNCube(TorusKind, fmt.Sprintf("%dx%d torus", kx, ky), []int{kx, ky}, true, 2)
}

// NewRing returns an n-node bidirectional ring (an n-ary 1-cube) with
// 1-cycle channels.
func NewRing(n int) *Topology {
	return newKAryNCube(RingKind, fmt.Sprintf("%d-node ring", n), []int{n}, true, 1)
}

// MaxNodes bounds the size of topologies ByName will construct, so an
// untrusted spec string (a config file, a fuzzer) cannot demand a
// multi-gigabyte link table.
const MaxNodes = 1 << 16

// checkDims validates parsed dimension sizes: every dimension must hold
// at least 2 nodes (a 1-wide dimension has no channels and the
// constructors reject it) and the node count must stay within MaxNodes.
func checkDims(name string, ks ...int) error {
	n := 1
	for _, k := range ks {
		if k < 2 {
			return fmt.Errorf("topology: %q: dimension size %d < 2", name, k)
		}
		if n > MaxNodes/k {
			return fmt.Errorf("topology: %q exceeds %d nodes", name, MaxNodes)
		}
		n *= k
	}
	return nil
}

// ByName constructs a topology from a name like "mesh8x8", "torus8x8" or
// "ring64". Only canonical spellings are accepted: the parsed values must
// reproduce the input exactly, which rejects trailing junk, signs, and
// non-canonical digits ("mesh08x8") that would otherwise alias a valid
// name — names feed cache keys, so two spellings of one topology must not
// hash apart, nor two topologies collide on one spelling.
func ByName(name string) (*Topology, error) {
	switch {
	case strings.HasPrefix(name, "mesh"):
		var kx, ky int
		if _, err := fmt.Sscanf(name, "mesh%dx%d", &kx, &ky); err != nil || name != fmt.Sprintf("mesh%dx%d", kx, ky) {
			return nil, fmt.Errorf("topology: bad mesh spec %q", name)
		}
		if err := checkDims(name, kx, ky); err != nil {
			return nil, err
		}
		return NewMesh(kx, ky), nil
	case strings.HasPrefix(name, "torus"):
		var kx, ky int
		if _, err := fmt.Sscanf(name, "torus%dx%d", &kx, &ky); err != nil || name != fmt.Sprintf("torus%dx%d", kx, ky) {
			return nil, fmt.Errorf("topology: bad torus spec %q", name)
		}
		if err := checkDims(name, kx, ky); err != nil {
			return nil, err
		}
		return NewTorus(kx, ky), nil
	case strings.HasPrefix(name, "ring"):
		var n int
		if _, err := fmt.Sscanf(name, "ring%d", &n); err != nil || name != fmt.Sprintf("ring%d", n) {
			return nil, fmt.Errorf("topology: bad ring spec %q", name)
		}
		if err := checkDims(name, n); err != nil {
			return nil, err
		}
		return NewRing(n), nil
	default:
		return nil, fmt.Errorf("topology: unknown topology %q", name)
	}
}
