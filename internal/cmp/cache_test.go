package cmp

import (
	"maps"
	"math/rand"
	"testing"
	"unsafe"
)

// tickLRU is the reference Cache holds to: the cache as it was before its
// ways became recency-ordered words. Each way is a {tag, state, lru} record;
// a Lookup hit or an Insert stamps the way with a global tick, SetState
// leaves the stamp alone, Insert takes the first invalid way, and the victim
// of a full set is the way with the oldest stamp.
type tickLRU struct {
	sets, ways   int
	lines        []tickLine
	tick         uint64
	hits, misses int64
}

type tickLine struct {
	tag   uint64
	state LineState
	lru   uint64
}

func newTickLRU(sets, ways int) *tickLRU {
	return &tickLRU{sets: sets, ways: ways, lines: make([]tickLine, sets*ways)}
}

func (c *tickLRU) set(lineAddr uint64) []tickLine {
	h := lineAddr ^ lineAddr>>10 ^ lineAddr>>20 ^ lineAddr>>30 ^ lineAddr>>40
	base := (int(h) & (c.sets - 1)) * c.ways
	return c.lines[base : base+c.ways]
}

func (c *tickLRU) resident(set []tickLine, lineAddr uint64) *tickLine {
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

func (c *tickLRU) Lookup(lineAddr uint64) LineState {
	if l := c.resident(c.set(lineAddr), lineAddr); l != nil {
		c.tick++
		l.lru = c.tick
		c.hits++
		return l.state
	}
	c.misses++
	return Invalid
}

func (c *tickLRU) Probe(lineAddr uint64) LineState {
	if l := c.resident(c.set(lineAddr), lineAddr); l != nil {
		return l.state
	}
	return Invalid
}

func (c *tickLRU) SetState(lineAddr uint64, s LineState) {
	if l := c.resident(c.set(lineAddr), lineAddr); l != nil {
		l.state = s
	}
}

func (c *tickLRU) Insert(lineAddr uint64, s LineState) Victim {
	set := c.set(lineAddr)
	c.tick++
	if l := c.resident(set, lineAddr); l != nil {
		l.state, l.lru = s, c.tick
		return Victim{}
	}
	for i := range set {
		if set[i].state == Invalid {
			set[i] = tickLine{tag: lineAddr, state: s, lru: c.tick}
			return Victim{}
		}
	}
	v := 0
	for i := range set {
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	victim := Victim{LineAddr: set[v].tag, State: set[v].state}
	set[v] = tickLine{tag: lineAddr, state: s, lru: c.tick}
	return victim
}

// residentLines returns every valid (line, state) pair of a cache.
func residentLines(c *Cache) map[uint64]LineState {
	m := map[uint64]LineState{}
	for _, w := range c.lines {
		if wayState(w) != Invalid {
			m[w>>stateBits] = wayState(w)
		}
	}
	return m
}

func (c *tickLRU) residentLines() map[uint64]LineState {
	m := map[uint64]LineState{}
	for _, l := range c.lines {
		if l.state != Invalid {
			m[l.tag] = l.state
		}
	}
	return m
}

// checkCacheOps drives a Cache and a tickLRU with the operations encoded in
// data and fails at the first difference in a return value, the hit/miss
// counters or the resident (line, state) set. data[0] picks the geometry:
// 1-8 ways and 1, 2, 4 or 8 sets. Each further byte pair is one operation:
// the first byte's low two bits pick Lookup, Probe, SetState or Insert and
// the rest a state; the second byte picks one of 256 lines, 64 small ones
// and their aliases at four line addresses near 2^48, so few sets see many
// tags and tags differ in their high bits.
func checkCacheOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	ways, sets := 1+int(data[0]%8), 1<<(data[0]>>3%4)
	c := NewCache(sets*ways*64, ways, 64)
	ref := newTickLRU(sets, ways)
	for i := 1; i+1 < len(data); i += 2 {
		op, s := data[i]&3, LineState(data[i]>>2%3)
		line := uint64(data[i+1]&63) | uint64(data[i+1]>>6)<<46
		var name string
		var got, want any
		switch op {
		case 0:
			name, got, want = "Lookup", c.Lookup(line), ref.Lookup(line)
		case 1:
			name, got, want = "Probe", c.Probe(line), ref.Probe(line)
		case 2:
			c.SetState(line, s)
			ref.SetState(line, s)
			name = "SetState"
		case 3:
			name, got, want = "Insert", c.Insert(line, s), ref.Insert(line, s)
		}
		if got != want {
			t.Fatalf("%d sets x %d ways, op %d %s(%#x, %s) = %+v, tick LRU %+v", sets, ways, i/2, name, line, s, got, want)
		}
		if c.Hits != ref.hits || c.Misses != ref.misses {
			t.Fatalf("%d sets x %d ways, op %d %s(%#x): hits/misses %d/%d, tick LRU %d/%d",
				sets, ways, i/2, name, line, c.Hits, c.Misses, ref.hits, ref.misses)
		}
		if got, want := residentLines(c), ref.residentLines(); !maps.Equal(got, want) {
			t.Fatalf("%d sets x %d ways, op %d %s(%#x, %s): resident %v, tick LRU %v", sets, ways, i/2, name, line, s, got, want)
		}
	}
}

// TestCacheMatchesTickLRU holds the recency-ordered Cache to the tick-stamped
// LRU cache it replaced, over random operation sequences on small
// geometries.
func TestCacheMatchesTickLRU(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+2*4000)
		rng.Read(data)
		checkCacheOps(t, data)
	}
}

// FuzzCacheMatchesTickLRU is TestCacheMatchesTickLRU over fuzzer-chosen
// operation sequences, encoded as checkCacheOps reads them.
func FuzzCacheMatchesTickLRU(f *testing.F) {
	f.Add([]byte{})
	// Op bytes: 0x00 Lookup, 0x01 Probe, 0x02/0x06/0x0a SetState and
	// 0x03/0x07/0x0b Insert to Invalid/Shared/Modified.
	// Direct-mapped, one set: every Insert of a new line evicts.
	f.Add([]byte{0x00, 0x07, 0x01, 0x07, 0x02, 0x00, 0x01, 0x0b, 0x41})
	// Two ways, one set: a Lookup hit saves its line from the next victim.
	f.Add([]byte{0x01, 0x07, 0x01, 0x07, 0x02, 0x00, 0x01, 0x07, 0x03, 0x01, 0x01})
	// Four ways, one set: SetState to Invalid frees a way that the next
	// Insert takes, and SetState to Modified is not a use, so its line is
	// still the victim after that.
	f.Add([]byte{0x03, 0x07, 0x01, 0x07, 0x02, 0x07, 0x03, 0x07, 0x04, 0x02, 0x02, 0x0a, 0x01, 0x07, 0x05, 0x07, 0x06, 0x01, 0x01})
	// Eight ways, eight sets: four tags that differ only above bit 45
	// share one set.
	f.Add([]byte{0x1f, 0x07, 0x01, 0x07, 0x41, 0x07, 0x81, 0x07, 0xc1, 0x00, 0x41, 0x01, 0x81, 0x0b, 0xc1, 0x00, 0xc1})
	f.Fuzz(checkCacheOps)
}

// TestDirEntrySize pins the directory entry at 16 bytes: canneal creates
// tens of thousands of them per run.
func TestDirEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n > 16 {
		t.Errorf("dirEntry is %d bytes, want <= 16", n)
	}
}
