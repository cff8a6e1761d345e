package cmp

// DeferredLines counts the lines, over every home, that hold requests in the
// deferred side table.
func (s *System) DeferredLines() int {
	n := 0
	for _, h := range s.homes {
		n += len(h.deferred)
	}
	return n
}
