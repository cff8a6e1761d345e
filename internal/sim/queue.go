package sim

// FIFO is a generic ring-buffer queue that grows on demand. The zero value
// is an empty FIFO that allocates on its first push; the network holds its
// source queues that way, by value.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// NewFIFO returns a FIFO with the given initial capacity hint.
func NewFIFO[T any](hint int) *FIFO[T] {
	if hint < 4 {
		hint = 4
	}
	return &FIFO[T]{buf: make([]T, hint)}
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends an item, growing the queue as needed.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	// head < len and n <= len, so a compare-and-subtract wraps the index
	// without the integer divide a % would cost on this hot path.
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

func (q *FIFO[T]) grow() {
	nb := make([]T, max(2*len(q.buf), 16))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the oldest item. ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v, true
}

// Peek returns the oldest item without removing it. ok is false when empty.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item (0 = front). It panics when out of range.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

// Clear empties the queue, releasing references so the GC can reclaim
// queued values.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = zero
	}
	q.head, q.n = 0, 0
}

// DelayLine models a fixed-latency pipeline: items pushed at cycle c become
// visible exactly c+delay cycles later. A zero delay makes items visible
// the same cycle they are pushed. The router keeps its own inline rings
// (internal/router/ring.go); this generic form is what the repo benchmark's
// sim.delayline_ns_per_op times.
type DelayLine[T any] struct {
	delay int64
	q     *FIFO[delayed[T]]
	// headAt caches the delivery time of the head item (meaningless while
	// empty), so polling a not-yet-ready line is a comparison rather than
	// a queue peek.
	headAt int64
}

type delayed[T any] struct {
	at int64
	v  T
}

// NewDelayLine returns a delay line with the given latency in cycles.
// Negative delays are treated as zero.
func NewDelayLine[T any](delay int64) *DelayLine[T] {
	if delay < 0 {
		delay = 0
	}
	return &DelayLine[T]{delay: delay, q: NewFIFO[delayed[T]](8)}
}

// Delay returns the line's latency in cycles.
func (d *DelayLine[T]) Delay() int64 { return d.delay }

// Len returns the number of items in flight.
func (d *DelayLine[T]) Len() int { return d.q.Len() }

// Push inserts an item at cycle now; it becomes ready at now+delay.
func (d *DelayLine[T]) Push(now int64, v T) {
	if d.q.Len() == 0 {
		d.headAt = now + d.delay
	}
	d.q.Push(delayed[T]{at: now + d.delay, v: v})
}

// PopReady removes and returns the next item whose delivery time has been
// reached at cycle now. ok is false when nothing is ready.
func (d *DelayLine[T]) PopReady(now int64) (v T, ok bool) {
	if d.q.Len() == 0 || d.headAt > now {
		var zero T
		return zero, false
	}
	head, _ := d.q.Pop()
	if next, ok := d.q.Peek(); ok {
		d.headAt = next.at
	}
	return head.v, true
}
