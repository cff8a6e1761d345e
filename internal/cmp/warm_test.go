package cmp

import "testing"

func TestWarmL1SetsCoherentState(t *testing.T) {
	sys, _ := protoSystem(t)
	lines := []uint64{4, 8, 12} // home tile 0 in a 4-tile system
	sys.WarmL1(2, lines, Modified)
	for _, l := range lines {
		if sys.tileArr[2].l1.Probe(l) != Modified {
			t.Errorf("line %d not Modified in L1", l)
		}
		h := sys.homes[sys.homeOf(l)]
		e := h.entry(l)
		if e.state != dModified || e.owner != 2 {
			t.Errorf("line %d directory not consistent: %+v", l, e)
		}
		if h.l2.Probe(l) == Invalid {
			t.Errorf("line %d missing from L2", l)
		}
	}
}

func TestWarmL1SharedAccumulatesSharers(t *testing.T) {
	sys, _ := protoSystem(t)
	sys.WarmL1(1, []uint64{16}, Shared)
	sys.WarmL1(3, []uint64{16}, Shared)
	e := sys.homes[0].entry(16)
	if e.state != dShared || e.sharers != (1<<1|1<<3) {
		t.Errorf("shared warm state: %+v", e)
	}
}

func TestWarmL2DataOnly(t *testing.T) {
	sys, _ := protoSystem(t)
	sys.WarmL2([]uint64{20, 24})
	h := sys.homes[0]
	for _, l := range []uint64{20, 24} {
		if h.l2.Probe(l) == Invalid {
			t.Errorf("line %d not in L2", l)
		}
		if i, ok := h.index[l]; ok && (h.dir[i].state != dInvalid || h.dir[i].sharers != 0) {
			t.Errorf("warm L2 created directory sharers: %+v", h.dir[i])
		}
		for _, tile := range sys.tileArr {
			if tile.l1.Probe(l) != Invalid {
				t.Error("warm L2 leaked into an L1")
			}
		}
	}
}

func TestResetCacheStats(t *testing.T) {
	sys, _ := protoSystem(t)
	sys.tileArr[0].l1.Lookup(99) // a miss
	sys.homes[0].l2.Lookup(99)
	sys.ResetCacheStats()
	if sys.tileArr[0].l1.Misses != 0 || sys.homes[0].l2.Misses != 0 {
		t.Error("stats not reset")
	}
}
