package sim

// Clock is the global cycle counter of a simulation. Components read it to
// timestamp flits and schedule future actions; only the top-level driver
// advances it.
type Clock struct {
	now int64
}

// Now returns the current cycle.
func (c *Clock) Now() int64 { return c.now }

// Tick advances the clock by one cycle and returns the new time.
func (c *Clock) Tick() int64 {
	c.now++
	return c.now
}

// AdvanceTo jumps the clock forward to cycle t. It is a no-op when t is
// not in the future; callers (the engine's quiescence fast-forward) are
// responsible for only skipping cycles in which nothing can happen.
func (c *Clock) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Ticker fires at a fixed period, optionally with an initial phase offset.
// It is used for periodic activity such as timer-interrupt injection in the
// kernel-traffic model.
type Ticker struct {
	period int64
	next   int64
}

// NewTicker returns a ticker that first fires at cycle offset and then every
// period cycles. A period <= 0 yields a ticker that never fires.
func NewTicker(period, offset int64) *Ticker {
	return &Ticker{period: period, next: offset}
}

// Fire reports whether the ticker fires at the given cycle, advancing its
// internal schedule when it does. Calling Fire with a cycle beyond several
// missed periods fires once and resynchronizes to the next multiple.
func (t *Ticker) Fire(now int64) bool {
	if t.period <= 0 {
		return false
	}
	if now < t.next {
		return false
	}
	for t.next <= now {
		t.next += t.period
	}
	return true
}

// Next returns the next cycle at which Fire will report true, or -1 for a
// ticker that never fires. It lets idle drivers schedule a wakeup at the
// next tick instead of polling Fire every cycle.
func (t *Ticker) Next() int64 {
	if t.period <= 0 {
		return -1
	}
	return t.next
}
