package topology

// Diameter returns the maximum minimal hop count over all node pairs.
func (t *Topology) Diameter() int {
	max := 0
	for a := 0; a < t.N; a++ {
		for b := 0; b < t.N; b++ {
			if d := t.Distance(a, b); d > max {
				max = d
			}
		}
	}
	return max
}
