// Package routing implements the routing algorithms of Table I: dimension-
// ordered routing (DOR), Valiant's randomized algorithm (VAL), ROMM
// (randomized minimal two-phase), and minimal-adaptive routing (MA) using
// Duato's protocol with a DOR escape class.
//
// Deadlock freedom is obtained by partitioning virtual channels into
// ordered classes: rings and tori add a dateline class per dimension
// traversal, and the two-phase algorithms (VAL, ROMM) give each phase its
// own class group. A router with V virtual channels divides them evenly
// among an algorithm's NumClasses classes.
package routing

import (
	"fmt"

	"noceval/internal/sim"
	"noceval/internal/topology"
)

// AnyClass marks a candidate that may use any virtual channel (used for
// ejection, which is an always-available sink).
const AnyClass = -1

// State is the per-packet routing state carried by the head flit. It is
// mutated by ArriveAt when the packet reaches a router and by Traverse when
// it crosses a link, on the routers that read it: those that ask the
// algorithm per head flit. A router whose routes NextHops memoises never
// reads it, so from injection on it neither updates it nor keeps it
// current.
type State struct {
	// Intermediate is the mid-point node for two-phase algorithms, or -1.
	Intermediate int
	// Phase is 0 while heading to Intermediate, 1 afterwards.
	Phase int
	// CurDim is the dimension currently being traversed, or -1 before the
	// first hop of a phase.
	CurDim int
	// Dateline records whether the packet crossed a wraparound channel in
	// the current dimension (selects the upper dateline VC class).
	Dateline bool
	// OnEscape marks a packet that committed to an escape-class channel
	// under Duato's protocol. Once on the escape network, the packet must
	// stay on it: re-entering adaptive channels creates cyclic extended
	// dependencies between escape channels of different dimensions and can
	// deadlock.
	OnEscape bool
}

// NewState returns the initial routing state for a packet with the given
// intermediate node (-1 for single-phase algorithms).
func NewState(intermediate int) State {
	return State{Intermediate: intermediate, CurDim: -1}
}

// ArriveAt updates the state when the packet's head flit reaches router
// cur: reaching the intermediate node ends phase 0.
func (st *State) ArriveAt(cur int) {
	if st.Phase == 0 && st.Intermediate >= 0 && cur == st.Intermediate {
		st.Phase = 1
		st.CurDim = -1
		st.Dateline = false
	}
}

// Traverse updates the state as the packet's head flit crosses a link.
func (st *State) Traverse(link topology.Link) {
	if link.Dim != st.CurDim {
		st.CurDim = link.Dim
		st.Dateline = false
	}
	if link.Wrap {
		st.Dateline = true
	}
}

// classAfter returns the dateline class the packet will occupy downstream
// after traversing the given link: 0 below the dateline, 1 above.
func (st *State) classAfter(link topology.Link) int {
	dl := st.Dateline
	if link.Dim != st.CurDim {
		dl = false
	}
	if link.Wrap {
		dl = true
	}
	if dl {
		return 1
	}
	return 0
}

// Candidate is one admissible (output port, VC class) pair for a packet.
type Candidate struct {
	Port  int
	Class int
}

// Algorithm computes the admissible next hops of a packet.
type Algorithm interface {
	// Name returns the algorithm's short identifier, e.g. "dor".
	Name() string
	// NumClasses returns how many VC classes the algorithm needs on the
	// given topology. The network must provide at least that many VCs.
	NumClasses(t *topology.Topology) int
	// PickIntermediate selects the intermediate node for a packet from src
	// to dst, or returns -1 when the algorithm is single-phase.
	PickIntermediate(t *topology.Topology, rng *sim.RNG, src, dst int) int
	// Candidates appends the admissible (port, class) pairs for a packet at
	// node cur heading for dst, and returns the extended slice. Reaching
	// the final destination yields the single candidate
	// {t.LocalPort(), AnyClass}.
	Candidates(t *topology.Topology, cur, dst int, st *State, buf []Candidate) []Candidate
	// Committed informs the algorithm which VC class the packet was
	// granted for its next hop, so per-packet protocol state can be
	// updated (Duato escape commitment). Called with AnyClass for
	// ejection grants.
	Committed(t *topology.Topology, st *State, class int)
}

// noCommit provides the no-op Committed shared by algorithms without
// per-grant state.
type noCommit struct{}

// Committed implements Algorithm as a no-op.
func (noCommit) Committed(*topology.Topology, *State, int) {}

// goal returns the node the packet is currently routing toward.
func goal(dst int, st *State) int {
	if st.Phase == 0 && st.Intermediate >= 0 {
		return st.Intermediate
	}
	return dst
}

// datelineClasses returns how many dateline classes one DOR phase needs.
func datelineClasses(t *topology.Topology) int {
	if t.Kind == topology.MeshKind {
		return 1
	}
	return 2
}

// dorNext returns the DOR output port from cur toward target, or -1 when
// cur == target. Dimensions are corrected in ascending order.
func dorNext(t *topology.Topology, cur, target int) int {
	for d := 0; d < t.Dims; d++ {
		dir, _ := t.DirTo(d, t.CoordOf(cur, d), t.CoordOf(target, d))
		if dir > 0 {
			return topology.PlusPort(d)
		}
		if dir < 0 {
			return topology.MinusPort(d)
		}
	}
	return -1
}

// DOR is deterministic dimension-ordered routing: correct dimension 0
// fully, then dimension 1, and so on. On a mesh it needs a single VC
// class; rings and tori need a dateline class pair.
type DOR struct{ noCommit }

// Name implements Algorithm.
func (DOR) Name() string { return "dor" }

// NumClasses implements Algorithm.
func (DOR) NumClasses(t *topology.Topology) int { return datelineClasses(t) }

// PickIntermediate implements Algorithm.
func (DOR) PickIntermediate(*topology.Topology, *sim.RNG, int, int) int { return -1 }

// Candidates implements Algorithm.
func (DOR) Candidates(t *topology.Topology, cur, dst int, st *State, buf []Candidate) []Candidate {
	g := goal(dst, st)
	if cur == g {
		return append(buf, Candidate{Port: t.LocalPort(), Class: AnyClass})
	}
	port := dorNext(t, cur, g)
	class := 0
	if datelineClasses(t) == 2 {
		class = st.classAfter(t.LinkAt(cur, port))
	}
	return append(buf, Candidate{Port: port, Class: class})
}

// twoPhase provides the shared Candidates logic of VAL and ROMM: DOR within
// each phase, with phase-partitioned VC classes.
type twoPhase struct{}

func (twoPhase) numClasses(t *topology.Topology) int { return 2 * datelineClasses(t) }

func (twoPhase) candidates(t *topology.Topology, cur, dst int, st *State, buf []Candidate) []Candidate {
	g := goal(dst, st)
	if cur == g {
		// goal == dst here: phase transitions happen in ArriveAt, so a
		// packet sitting at its intermediate is already in phase 1.
		return append(buf, Candidate{Port: t.LocalPort(), Class: AnyClass})
	}
	port := dorNext(t, cur, g)
	dlc := datelineClasses(t)
	class := st.Phase * dlc
	if dlc == 2 {
		class += st.classAfter(t.LinkAt(cur, port))
	}
	return append(buf, Candidate{Port: port, Class: class})
}

// Valiant routes every packet through a uniformly random intermediate node,
// trading locality for perfect load balance (VAL in the paper).
type Valiant struct {
	twoPhase
	noCommit
}

// Name implements Algorithm.
func (Valiant) Name() string { return "val" }

// NumClasses implements Algorithm.
func (v Valiant) NumClasses(t *topology.Topology) int { return v.numClasses(t) }

// PickIntermediate implements Algorithm.
func (Valiant) PickIntermediate(t *topology.Topology, rng *sim.RNG, _, _ int) int {
	return rng.Intn(t.N)
}

// Candidates implements Algorithm.
func (v Valiant) Candidates(t *topology.Topology, cur, dst int, st *State, buf []Candidate) []Candidate {
	return v.candidates(t, cur, dst, st, buf)
}

// ROMM is two-phase randomized minimal routing: the intermediate node is
// drawn uniformly from the minimal quadrant spanned by source and
// destination, so paths stay minimal while gaining diversity.
type ROMM struct {
	twoPhase
	noCommit
}

// Name implements Algorithm.
func (ROMM) Name() string { return "romm" }

// NumClasses implements Algorithm.
func (r ROMM) NumClasses(t *topology.Topology) int { return r.numClasses(t) }

// PickIntermediate implements Algorithm.
func (ROMM) PickIntermediate(t *topology.Topology, rng *sim.RNG, src, dst int) int {
	coord := make([]int, t.Dims)
	for d := 0; d < t.Dims; d++ {
		a := t.CoordOf(src, d)
		dir, hops := t.DirTo(d, a, t.CoordOf(dst, d))
		off := 0
		if hops > 0 {
			off = rng.Intn(hops + 1)
		}
		k := t.K[d]
		coord[d] = ((a+dir*off)%k + k) % k
	}
	return t.NodeAt(coord)
}

// Candidates implements Algorithm.
func (r ROMM) Candidates(t *topology.Topology, cur, dst int, st *State, buf []Candidate) []Candidate {
	return r.candidates(t, cur, dst, st, buf)
}

// MinimalAdaptive (MA) may take any productive minimal hop using the
// adaptive VC class and falls back to DOR on a dedicated escape class
// (Duato's protocol), which keeps it deadlock-free while letting packets
// route around congestion. A packet granted an escape channel commits to
// the escape network for the rest of its route ("once on escape, stay on
// escape"): allowing re-entry into adaptive channels creates cyclic
// extended dependencies between the X and Y escape channels and is a
// real, empirically reproducible deadlock.
type MinimalAdaptive struct{}

// Name implements Algorithm.
func (MinimalAdaptive) Name() string { return "ma" }

// NumClasses implements Algorithm.
func (MinimalAdaptive) NumClasses(t *topology.Topology) int {
	return datelineClasses(t) + 1 // escape classes + one adaptive class
}

// PickIntermediate implements Algorithm.
func (MinimalAdaptive) PickIntermediate(*topology.Topology, *sim.RNG, int, int) int { return -1 }

// Committed implements Algorithm: commit to the escape network once an
// escape-class channel is granted.
func (m MinimalAdaptive) Committed(t *topology.Topology, st *State, class int) {
	if class != AnyClass && class < datelineClasses(t) {
		st.OnEscape = true
	}
}

// Candidates implements Algorithm.
func (m MinimalAdaptive) Candidates(t *topology.Topology, cur, dst int, st *State, buf []Candidate) []Candidate {
	g := goal(dst, st)
	if cur == g {
		return append(buf, Candidate{Port: t.LocalPort(), Class: AnyClass})
	}
	dlc := datelineClasses(t)
	if st.OnEscape {
		// Escape committed: DOR on the escape classes only.
		port := dorNext(t, cur, g)
		class := 0
		if dlc == 2 {
			class = st.classAfter(t.LinkAt(cur, port))
		}
		return append(buf, Candidate{Port: port, Class: class})
	}
	adaptiveClass := dlc
	// All productive minimal directions on the adaptive class.
	for d := 0; d < t.Dims; d++ {
		dir, _ := t.DirTo(d, t.CoordOf(cur, d), t.CoordOf(g, d))
		if dir > 0 {
			buf = append(buf, Candidate{Port: topology.PlusPort(d), Class: adaptiveClass})
		} else if dir < 0 {
			buf = append(buf, Candidate{Port: topology.MinusPort(d), Class: adaptiveClass})
		}
	}
	// Escape path: the DOR hop on the escape class.
	port := dorNext(t, cur, g)
	class := 0
	if dlc == 2 {
		class = st.classAfter(t.LinkAt(cur, port))
	}
	return append(buf, Candidate{Port: port, Class: class})
}

// maxNextHopNodes bounds the topologies NextHops memoises: a row is one
// byte per destination, so a network's rows total at most 1 MiB.
const maxNextHopNodes = 1024

// NextHops memoises router cur's routes on t, when alg's route there
// depends only on (router, destination): DOR on a mesh. Entry row[dst]
// indexes cands, and cands[row[dst]] is the single candidate
// alg.Candidates returns at cur for a packet headed to dst, the ejection
// candidate {t.LocalPort(), AnyClass} at dst == cur included. The row is
// filled by calling Candidates once per destination, so it is a cache of
// the algorithm, not a second routing implementation. NextHops returns nil
// for every other algorithm or topology (their routes read per-packet
// state: dateline, phase, escape commitment) and above maxNextHopNodes
// nodes; routers then call Candidates per head flit.
func NextHops(alg Algorithm, t *topology.Topology, cur int) (row []uint8, cands []Candidate) {
	if !Memoises(alg, t) {
		return nil, nil
	}
	dor := alg.(DOR)
	row, cands = make([]uint8, t.N), make([]Candidate, 0, t.Ports())
	var buf [1]Candidate
	for dst := range row {
		st := NewState(-1)
		c := dor.Candidates(t, cur, dst, &st, buf[:0])[0]
		i := 0
		for i < len(cands) && cands[i] != c {
			i++
		}
		if i == len(cands) {
			cands = append(cands, c)
		}
		row[dst] = uint8(i)
	}
	return row, cands
}

// Memoises reports whether NextHops memoises alg's routes on t. Routers
// whose routes are memoised never read a packet's routing state.
func Memoises(alg Algorithm, t *topology.Topology) bool {
	_, ok := alg.(DOR)
	return ok && t.Kind == topology.MeshKind && t.N <= maxNextHopNodes
}

// ByName returns the built-in algorithm with the given name.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "dor":
		return DOR{}, nil
	case "val":
		return Valiant{}, nil
	case "romm":
		return ROMM{}, nil
	case "ma":
		return MinimalAdaptive{}, nil
	default:
		return nil, fmt.Errorf("routing: unknown algorithm %q", name)
	}
}
