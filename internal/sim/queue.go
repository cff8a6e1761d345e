package sim

// FIFO is a generic ring-buffer queue that grows on demand. The zero value
// is an empty FIFO that allocates on its first push; the network holds its
// source queues that way, by value.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
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

// DelayLine is a fixed-latency pipeline: an item pushed at cycle c becomes
// poppable at c+delay, and items leave in push order. Pushes come in
// nondecreasing cycle order, so the line is a FIFO sorted by due cycle and
// PopReady looks only at its head: nothing is examined before it is due. A
// zero delay makes items visible the same cycle they are pushed.
//
// The ring is held by value, so lines can sit inline in a slice or struct;
// copying a DelayLine aliases its buffer. It allocates on its first push (or
// Grow) and doubles when full, never shrinking. The network moves every flit
// and credit in flight on these lines (internal/network).
type DelayLine[T any] struct {
	buf     []delayed[T]
	head, n int
	delay   int64
}

type delayed[T any] struct {
	at int64
	v  T
}

// NewDelayLine returns an empty delay line with the given latency in cycles.
// Negative delays are treated as zero. It allocates nothing.
func NewDelayLine[T any](delay int64) DelayLine[T] {
	return DelayLine[T]{delay: max(delay, 0)}
}

// Delay returns the line's latency in cycles.
func (d *DelayLine[T]) Delay() int64 { return d.delay }

// Len returns the number of items in flight.
func (d *DelayLine[T]) Len() int { return d.n }

// Grow makes room for n more items than the line holds, so that many pushes
// allocate nothing.
func (d *DelayLine[T]) Grow(n int) {
	if need := d.n + n; need > len(d.buf) {
		d.resize(need)
	}
}

// Push inserts an item at cycle now; it becomes ready at now+delay.
func (d *DelayLine[T]) Push(now int64, v T) {
	if d.n == len(d.buf) {
		d.resize(max(2*len(d.buf), int(d.delay)+1, 4))
	}
	// head < len and n < len, so a compare-and-subtract wraps the index.
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = delayed[T]{at: now + d.delay, v: v}
	d.n++
}

func (d *DelayLine[T]) resize(size int) {
	nb := make([]delayed[T], size)
	for i := range nb[:d.n] {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = nb, 0
}

// PopReady removes and returns the oldest item if it is due at cycle now.
// ok is false when the line is empty or its oldest item is not yet due. The
// vacated slot is cleared, so the line keeps no pointer alive.
func (d *DelayLine[T]) PopReady(now int64) (v T, ok bool) {
	if d.n == 0 || d.buf[d.head].at > now {
		return v, false
	}
	v = d.buf[d.head].v
	d.buf[d.head] = delayed[T]{}
	if d.head++; d.head == len(d.buf) {
		d.head = 0
	}
	d.n--
	return v, true
}

// Each visits every item in flight, oldest first, without removing any. It
// is for inspection, not the per-cycle path.
func (d *DelayLine[T]) Each(fn func(T)) {
	for i := 0; i < d.n; i++ {
		fn(d.buf[(d.head+i)%len(d.buf)].v)
	}
}

// Purge removes every item for which drop reports true, keeping the others
// in order with their due cycles. It is for rare events (a router kill), not
// the per-cycle path.
func (d *DelayLine[T]) Purge(drop func(T) bool) {
	kept := 0
	for i := 0; i < d.n; i++ {
		e := d.buf[(d.head+i)%len(d.buf)]
		if !drop(e.v) {
			d.buf[(d.head+kept)%len(d.buf)] = e
			kept++
		}
	}
	for i := kept; i < d.n; i++ {
		d.buf[(d.head+i)%len(d.buf)] = delayed[T]{}
	}
	d.n = kept
}
