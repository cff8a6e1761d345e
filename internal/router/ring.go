package router

// timed is one entry of a delayRing: a flit and the cycle it becomes
// deliverable. Credit rings carry bare VC numbers in f.VC (f.P is nil).
type timed struct {
	at int64
	f  Flit
}

// delayRing is a fixed-latency pipeline (router stages plus a link, or a
// credit return path) held by value in the router's block: entries pushed at
// cycle c become poppable at c+delay, in push order. The ring doubles only
// when a link outage or a router kill piles entries up.
type delayRing struct {
	buf     []timed
	head, n int
	delay   int64
}

// newDelayRing sizes the ring for its steady state: one push and one pop per
// cycle keep at most delay entries in flight.
func newDelayRing(delay int64) delayRing {
	return delayRing{buf: make([]timed, delay+1), delay: delay}
}

// push inserts f at cycle now; it becomes ready at now+delay.
func (d *delayRing) push(now int64, f Flit) {
	if d.n == len(d.buf) {
		d.grow()
	}
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = timed{at: now + d.delay, f: f}
	d.n++
}

func (d *delayRing) grow() {
	nb := make([]timed, 2*len(d.buf))
	for i := range nb[:d.n] {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = nb, 0
}

// popReady removes and returns the oldest entry if its delivery time has
// been reached at cycle now, clearing the slot's packet pointer as
// popFront does.
func (d *delayRing) popReady(now int64) (Flit, bool) {
	if d.n == 0 || d.buf[d.head].at > now {
		return Flit{}, false
	}
	f := d.buf[d.head].f
	d.buf[d.head].f.P = nil
	if d.head++; d.head == len(d.buf) {
		d.head = 0
	}
	d.n--
	return f, true
}

// each visits every in-flight entry oldest-first without removing any; it
// is for inspection and purges, not the per-cycle path.
func (d *delayRing) each(fn func(Flit)) {
	for i := 0; i < d.n; i++ {
		fn(d.buf[(d.head+i)%len(d.buf)].f)
	}
}
