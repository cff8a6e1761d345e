package sim

// EventHeap is a min-heap of values keyed by the cycle each is due: the
// batch driver's reply schedule and the CMP model's home-access completions.
// The zero value is an empty heap.
//
// Values with equal due cycles have no tie-break, so the order they pop in
// is whatever the sift produces — and simulated results depend on it. up and
// down are therefore the standard library heap's, statement for statement,
// on a typed slice (TestEventHeapMatchesContainerHeap holds them to that);
// what the type removes is that package's two interface boxes per event,
// not its algorithm.
type EventHeap[T any] struct {
	items []timedEvent[T]
}

type timedEvent[T any] struct {
	at int64
	v  T
}

// Len returns the number of scheduled events.
func (h *EventHeap[T]) Len() int { return len(h.items) }

// NextAt returns the earliest due cycle, or -1 when nothing is scheduled.
func (h *EventHeap[T]) NextAt() int64 {
	if len(h.items) == 0 {
		return -1
	}
	return h.items[0].at
}

// Push schedules v for cycle at.
func (h *EventHeap[T]) Push(at int64, v T) {
	h.items = append(h.items, timedEvent[T]{at: at, v: v})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the earliest event. It panics when empty.
func (h *EventHeap[T]) Pop() (at int64, v T) {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	ev := h.items[n]
	h.items[n] = timedEvent[T]{} // drop what v references
	h.items = h.items[:n]
	return ev.at, ev.v
}

func (h *EventHeap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h.items[j].at < h.items[i].at) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *EventHeap[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.items[j2].at < h.items[j1].at {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h.items[j].at < h.items[i].at) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
