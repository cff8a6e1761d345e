package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are the shape EventHeap replaced: a heap.Interface
// over a slice, ordered by due cycle alone.
type refEvent struct {
	at int64
	id int
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// TestEventHeapMatchesContainerHeap drives EventHeap and container/heap with
// the same interleaved pushes and pops, keys drawn from so few values that
// most events tie, and requires the same event — not merely the same key —
// out of both at every pop: equal due cycles have no tie-break, so pop order
// among them is defined by the sift and simulated results depend on it.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		keys := 1 + rng.Intn(8)
		var h EventHeap[int]
		ref := &refHeap{}
		id := 0
		pop := func() {
			want := heap.Pop(ref).(refEvent)
			if next := h.NextAt(); next != want.at {
				t.Fatalf("seed %d: NextAt %d, container/heap's minimum %d", seed, next, want.at)
			}
			at, got := h.Pop()
			if at != want.at || got != want.id {
				t.Fatalf("seed %d: popped (at %d, id %d), container/heap (at %d, id %d)", seed, at, got, want.at, want.id)
			}
		}
		for op := 0; op < 4000; op++ {
			if ref.Len() > 0 && rng.Bernoulli(0.45) {
				pop()
			} else {
				at := int64(rng.Intn(keys))
				heap.Push(ref, refEvent{at: at, id: id})
				h.Push(at, id)
				id++
			}
			if h.Len() != ref.Len() {
				t.Fatalf("seed %d: Len %d, container/heap %d", seed, h.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			pop()
		}
		if h.Len() != 0 || h.NextAt() != -1 {
			t.Fatalf("seed %d: drained heap has Len %d, NextAt %d", seed, h.Len(), h.NextAt())
		}
	}
}
