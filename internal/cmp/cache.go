// Package cmp implements the execution-driven chip-multiprocessor
// simulator the framework is validated against (§IV-A): in-order cores
// with blocking loads and a store buffer, private write-back L1 data
// caches kept coherent by an MSI directory at the distributed shared L2
// (one bank per tile, static address interleaving), a 300-cycle DRAM
// model, and network interfaces that turn every coherence action into
// flits on the cycle-accurate network.
//
// This package is the repository's stand-in for Simics/GEMS+Garnet: it is
// not a full-system simulator, but it exercises the same closed loop —
// real cache misses become request/reply/invalidation packets whose
// latency stalls in-order cores — which is exactly the property the
// paper's validation experiments depend on.
package cmp

import "fmt"

// LineState is the MSI state of a cache line in an L1.
type LineState uint8

// MSI states.
const (
	Invalid LineState = iota
	Shared
	Modified
)

// String returns the state's single-letter name.
func (s LineState) String() string {
	switch s {
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// Cache is a set-associative cache with true-LRU replacement, tracking
// line states but not data (the synthetic workloads never read values, and
// coherence traffic depends only on states).
//
// Each way is one word, lineAddr<<2 | state, so line addresses must be
// below 2^62; the protocol's are below 2^48 (they travel in Aux bits
// 63..16). The ways of a set are kept in recency order, most recent first:
// a Lookup hit or an Insert moves its way to the front, and when no way is
// free the victim is the last one. SetState changes a way in place, so it
// does not count as a use, and setting Invalid frees the way.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	lines    []uint64 // sets*ways way words, set-major

	Hits   int64
	Misses int64
}

// A way word's low stateBits hold its LineState, the rest its line address.
const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

func wayWord(lineAddr uint64, s LineState) uint64 { return lineAddr<<stateBits | uint64(s) }

func wayState(w uint64) LineState { return LineState(w & stateMask) }

// NewCache builds a cache of the given total size with the given
// associativity and line size (both byte counts); sizes must divide evenly
// and the set count must be a power of two.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cmp: non-positive cache geometry")
	}
	nLines := sizeBytes / lineBytes
	if nLines%ways != 0 {
		panic(fmt.Sprintf("cmp: %d lines not divisible by %d ways", nLines, ways))
	}
	sets := nLines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cmp: set count %d not a power of two", sets))
	}
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	if 1<<lb != lineBytes {
		panic(fmt.Sprintf("cmp: line size %d not a power of two", lineBytes))
	}
	return &Cache{
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		lines:    make([]uint64, sets*ways),
	}
}

// LineAddr converts a byte address to a line address (cache-line number).
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits }

// set returns the ways of the set lineAddr maps to, with XOR-folded
// (hashed) indexing, as real shared caches do: without it, workload regions
// whose bases are multiples of the set count alias into a handful of sets
// and conflict-miss pathologically.
func (c *Cache) set(lineAddr uint64) []uint64 {
	h := lineAddr ^ lineAddr>>10 ^ lineAddr>>20 ^ lineAddr>>30 ^ lineAddr>>40
	base := (int(h) & (c.sets - 1)) * c.ways
	return c.lines[base : base+c.ways]
}

// wayOf returns the index of lineAddr's way in set, or -1 when it is not
// resident.
func wayOf(set []uint64, lineAddr uint64) int {
	for i, w := range set {
		if w>>stateBits == lineAddr && wayState(w) != Invalid {
			return i
		}
	}
	return -1
}

// toFront stores w as set's most recent way, in place of set[i]; the ways
// before i each move back one.
func toFront(set []uint64, i int, w uint64) {
	copy(set[1:i+1], set[:i])
	set[0] = w
}

// Lookup returns the state of the line containing addr (a line address),
// updating LRU and hit/miss counters. Invalid means miss.
func (c *Cache) Lookup(lineAddr uint64) LineState {
	set := c.set(lineAddr)
	if i := wayOf(set, lineAddr); i >= 0 {
		w := set[i]
		toFront(set, i, w)
		c.Hits++
		return wayState(w)
	}
	c.Misses++
	return Invalid
}

// Probe returns the state without touching LRU or counters (used by
// coherence message handlers).
func (c *Cache) Probe(lineAddr uint64) LineState {
	set := c.set(lineAddr)
	if i := wayOf(set, lineAddr); i >= 0 {
		return wayState(set[i])
	}
	return Invalid
}

// SetState changes the state of a resident line; setting Invalid evicts
// it. It is a no-op when the line is absent.
func (c *Cache) SetState(lineAddr uint64, s LineState) {
	set := c.set(lineAddr)
	if i := wayOf(set, lineAddr); i >= 0 {
		set[i] = wayWord(lineAddr, s)
	}
}

// Victim describes a line displaced by Insert.
type Victim struct {
	LineAddr uint64
	State    LineState // Invalid when no eviction happened
}

// Insert installs lineAddr with the given state as the set's most recent
// line, returning the displaced victim (State Invalid if a free or same-tag
// way was used).
func (c *Cache) Insert(lineAddr uint64, s LineState) Victim {
	set := c.set(lineAddr)
	i := wayOf(set, lineAddr)
	if i < 0 {
		for j, w := range set {
			if wayState(w) == Invalid {
				i = j
				break
			}
		}
	}
	var v Victim
	if i < 0 {
		i = len(set) - 1
		v = Victim{LineAddr: set[i] >> stateBits, State: wayState(set[i])}
	}
	toFront(set, i, wayWord(lineAddr, s))
	return v
}

// MissRate returns misses/(hits+misses), or 0 before any access.
func (c *Cache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// ResetStats clears the hit/miss counters.
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }
