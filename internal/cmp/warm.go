package cmp

// Cache warming models the paper's methodology of running benchmarks from
// warmed-up checkpoints (§IV-A): without it, scaled-down runs are dominated
// by compulsory misses that the paper's multi-billion-instruction runs
// amortize away.

// WarmL1 pre-populates one core's L1 with the given lines in the given
// state (Shared for read-shared data, Modified for private writable data),
// mirroring them into the home L2 banks and directories so coherence state
// is consistent. Lines beyond the L1's capacity simply evict earlier ones;
// Modified victims of warming do not emit writeback traffic.
func (s *System) WarmL1(core int, lines []uint64, st LineState) {
	t := s.tileArr[core]
	for _, l := range lines {
		t.l1.Insert(l, st)
		h := s.homes[s.homeOf(l)]
		h.l2.Insert(l, Shared)
		e := h.entry(l)
		if st == Modified {
			e.state = dModified
			e.owner = int8(core)
			e.sharers = 1 << uint(core)
		} else if e.state != dModified {
			e.state = dShared
			e.sharers |= 1 << uint(core)
		}
	}
}

// WarmL2 pre-populates the distributed L2 with the given lines (data only,
// no L1 copies).
func (s *System) WarmL2(lines []uint64) {
	for _, l := range lines {
		s.homes[s.homeOf(l)].l2.Insert(l, Shared)
	}
}

// ResetCacheStats clears every cache's hit/miss counters, so statistics
// exclude the warming phase.
func (s *System) ResetCacheStats() {
	for i := range s.tileArr {
		s.tileArr[i].l1.ResetStats()
		s.homes[i].l2.ResetStats()
	}
}
