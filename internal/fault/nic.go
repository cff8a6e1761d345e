package fault

import (
	"noceval/internal/obs"
	"noceval/internal/router"
)

// NICConfig parameterizes the recovery NIC shared by all terminals.
type NICConfig struct {
	// Timeout is the base retransmission timeout in cycles (> 0).
	Timeout int64
	// MaxRetries bounds retransmissions per transaction; 0 abandons on the
	// first timeout.
	MaxRetries int
	// RetryCap is the per-node cap on transactions concurrently in
	// retransmission (MSHR-style); 0 means unlimited.
	RetryCap int
	// Nodes is the terminal count, for the per-node retry bookkeeping.
	Nodes int
	// Resend retransmits a timed-out transaction: it must inject a fresh
	// clone of prev into the network and return it. The clone carries the
	// same transaction identity, so a late arrival of either incarnation
	// completes the transaction and the other is discarded as a duplicate.
	Resend func(now int64, prev *router.Packet) router.Packet
	// Abandon reports a transaction given up after MaxRetries; the owner
	// (run mode) uses it to account the loss instead of waiting forever.
	Abandon func(now int64, p *router.Packet)
}

// entry is one outstanding transaction: the NIC's copy of its latest
// incarnation as sent, how often it has been retransmitted, and its armed
// timeout. The copy is the NIC's own because the network keeps a packet
// that has not injected only as a queue record.
type entry struct {
	pkt      router.Packet
	attempts int
	deadline int64
	// queued marks an entry whose first retransmission is waiting for a
	// RetryCap slot; it holds no armed timeout while queued.
	queued bool
}

// tmo is one armed timeout in the deadline heap. Entries are re-armed by
// pushing a new item and letting the stale one be skipped on pop (lazy
// deletion), keyed by the (txn, deadline) pair.
type tmo struct {
	at  int64
	txn uint64
}

// NIC models end-to-end loss recovery at the terminals: every sent packet
// is tracked until the destination accepts it (per-flit checksums reject
// corrupt packets there); a transaction not accepted within its timeout is
// retransmitted with exponential backoff, bounded by MaxRetries and an
// MSHR-style per-node cap on concurrent retransmissions. One NIC instance
// serves the whole network — state is per transaction, and the per-node cap
// is the only terminal-local resource.
type NIC struct {
	cfg     NICConfig
	entries map[uint64]*entry
	heap    []tmo
	// pending[node] queues transactions waiting for a RetryCap slot, in
	// timeout order; retrying[node] counts transactions currently holding a
	// slot (attempts > 0 and still tracked).
	pending  [][]uint64
	retrying []int

	tracked, acked, retried, abandoned, dup int64

	// Cross-run counters from the process-wide registry; nil when no
	// default registry is installed at construction time.
	mRetransmits *obs.Counter
	mDeadDrops   *obs.Counter

	// broken, set by BreakForTest, makes timeouts silently drop their
	// transaction — the deliberate retransmit bug the invariant harness's
	// mutation test must catch.
	broken bool
}

// NewNIC builds the recovery NIC. cfg.Timeout must be positive and Resend
// non-nil.
func NewNIC(cfg NICConfig) *NIC {
	if cfg.Timeout <= 0 {
		panic("fault: NIC requires a positive Timeout")
	}
	if cfg.Resend == nil {
		panic("fault: NIC requires a Resend callback")
	}
	reg := obs.Default()
	return &NIC{
		cfg:          cfg,
		entries:      make(map[uint64]*entry),
		pending:      make([][]uint64, cfg.Nodes),
		retrying:     make([]int, cfg.Nodes),
		mRetransmits: reg.Counter("fault.retransmits"),
		mDeadDrops:   reg.Counter("fault.dead_drops"),
	}
}

// Track starts watching a freshly sent packet: it stamps p's transaction
// identity and keeps a copy of p. Retransmitted clones are not re-tracked
// (Resend inherits the identity).
func (c *NIC) Track(now int64, p *router.Packet) {
	p.FaultTxn = p.ID
	c.entries[p.FaultTxn] = &entry{pkt: *p, deadline: now + c.cfg.Timeout}
	c.push(tmo{at: now + c.cfg.Timeout, txn: p.FaultTxn})
	c.tracked++
}

// AckOrDup resolves a clean delivery of p at its destination. It reports
// true when this is the transaction's first acceptance; false marks a
// redundant incarnation (the transaction already completed or was
// abandoned), which the receiver must discard.
func (c *NIC) AckOrDup(now int64, p *router.Packet) bool {
	e, ok := c.entries[p.FaultTxn]
	if !ok {
		c.dup++
		return false
	}
	delete(c.entries, p.FaultTxn)
	c.acked++
	if e.attempts > 0 {
		c.retrying[p.Src]--
		c.drainPending(now, p.Src)
	}
	return true
}

// Tick fires every timeout due at cycle now: retransmit, queue for a retry
// slot, or abandon once MaxRetries is exhausted.
func (c *NIC) Tick(now int64) {
	for len(c.heap) > 0 && c.heap[0].at <= now {
		it := c.pop()
		e, ok := c.entries[it.txn]
		if !ok || e.queued || e.deadline != it.at {
			continue // lazily deleted: acked, re-armed, or parked
		}
		if c.broken {
			delete(c.entries, it.txn)
			continue
		}
		if e.attempts >= c.cfg.MaxRetries {
			c.abandon(now, it.txn, e)
			continue
		}
		node := e.pkt.Src
		if e.attempts == 0 && c.cfg.RetryCap > 0 && c.retrying[node] >= c.cfg.RetryCap {
			e.queued = true
			c.pending[node] = append(c.pending[node], it.txn)
			continue
		}
		c.retry(now, it.txn, e)
	}
}

// retry retransmits entry e and re-arms its timeout with exponential
// backoff.
func (c *NIC) retry(now int64, txn uint64, e *entry) {
	node := e.pkt.Src
	if e.attempts == 0 {
		c.retrying[node]++
	}
	e.attempts++
	e.pkt = c.cfg.Resend(now, &e.pkt)
	shift := uint(e.attempts)
	if shift > 16 {
		shift = 16
	}
	e.deadline = now + c.cfg.Timeout<<shift
	c.push(tmo{at: e.deadline, txn: txn})
	c.retried++
	c.mRetransmits.Inc()
}

func (c *NIC) abandon(now int64, txn uint64, e *entry) {
	delete(c.entries, txn)
	c.abandoned++
	c.mDeadDrops.Inc()
	node := e.pkt.Src
	if e.attempts > 0 {
		c.retrying[node]--
	}
	if c.cfg.Abandon != nil {
		c.cfg.Abandon(now, &e.pkt)
	}
	c.drainPending(now, node)
}

// drainPending promotes queued transactions of node into freed retry slots.
func (c *NIC) drainPending(now int64, node int) {
	for len(c.pending[node]) > 0 &&
		(c.cfg.RetryCap <= 0 || c.retrying[node] < c.cfg.RetryCap) {
		txn := c.pending[node][0]
		c.pending[node] = c.pending[node][1:]
		e, ok := c.entries[txn]
		if !ok || !e.queued {
			continue // resolved while parked
		}
		e.queued = false
		c.retry(now, txn, e)
	}
}

// NextDeadline returns the earliest armed timeout, or -1 when none is
// armed. Queued transactions need no deadline of their own: a slot only
// frees when an armed transaction resolves.
func (c *NIC) NextDeadline() int64 {
	for len(c.heap) > 0 {
		it := c.heap[0]
		e, ok := c.entries[it.txn]
		if !ok || e.queued || e.deadline != it.at {
			c.pop()
			continue
		}
		return it.at
	}
	return -1
}

// Outstanding returns the number of unresolved transactions.
func (c *NIC) Outstanding() int { return len(c.entries) }

// Counters returns the NIC's cumulative statistics.
func (c *NIC) Counters() (tracked, acked, retried, abandoned, dup int64) {
	return c.tracked, c.acked, c.retried, c.abandoned, c.dup
}

// BreakForTest deliberately breaks the retransmit path: timed-out
// transactions are dropped without retry, abandonment, or accounting. The
// invariant harness's mutation test uses it to prove that silent loss is
// caught (Tracked == Acked + Abandoned + Outstanding fails).
func (c *NIC) BreakForTest() { c.broken = true }

// push and pop maintain the deadline min-heap, ordered by (at, txn) so heap
// restructuring is deterministic.
func (c *NIC) push(it tmo) {
	c.heap = append(c.heap, it)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !tmoLess(c.heap[i], c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *NIC) pop() tmo {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	c.heap = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && tmoLess(c.heap[l], c.heap[s]) {
			s = l
		}
		if r < n && tmoLess(c.heap[r], c.heap[s]) {
			s = r
		}
		if s == i {
			break
		}
		c.heap[i], c.heap[s] = c.heap[s], c.heap[i]
		i = s
	}
	return top
}

func tmoLess(a, b tmo) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.txn < b.txn
}
