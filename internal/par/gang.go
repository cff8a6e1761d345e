package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"noceval/internal/obs"
)

// gangSampleEvery is the Run-call sampling period for per-member busy-time
// measurement: every 64th wave pays four clock reads per member, keeping
// the imbalance statistics cheap enough for the per-cycle path.
const gangSampleEvery = 64

// spinBudget is how many no-progress polls a waiter burns before giving
// the processor back — Gosched in barriers, a channel park in the worker
// dispatch loop. The gang synchronizes several times per simulated cycle
// and the longest expected wait is a whole serial section on member 0
// (cross-tile bookkeeping, engine sampling, injection draws), easily
// 100µs+; both a futex sleep/wake pair and a Gosched storm cost more
// than spinning that out on a core with nothing else to run, so the
// budget is sized to cover serial sections with a wide margin and a
// waiter yields only when the engine genuinely goes idle (quiescence
// fast-forward, end of run). The budget applies only when every member
// can hold a processor simultaneously — an oversubscribed gang (more
// members than GOMAXPROCS) would spin against members that cannot run,
// so it yields immediately.
const spinBudget = 1 << 18

// Gang is a long-lived crew of pinned workers for the sharded cycle loop.
// Where Parallel hands independent tasks to a transient pool, a Gang runs
// the same function concurrently on every member once per Run — one member
// per network tile — with a spin barrier (Barrier) available inside the
// function for intra-cycle phase synchronization. Run is called once per
// simulated cycle, so dispatch stays cheap: the caller executes member 0
// itself and wakes the members-1 resident workers over per-worker
// channels; within the Run the members synchronize through an atomic
// sense-reversing barrier with no further channel traffic.
//
// A panic inside the function aborts the wave: the other members are
// released from whatever barrier they are spinning at, the Gang is marked
// broken (subsequent Runs re-raise), and the first panic surfaces on the
// calling goroutine wrapped in a TaskPanic, exactly like Parallel.
//
// The resident workers reference only the Gang's internal state, never the
// Gang itself, and that state drops each wave's function when the wave
// ends, so an abandoned Gang is collectable even when the function
// referenced it: a finalizer closes the dispatch channels and the workers
// exit. Explicit Close is still preferred — every run mode closes its
// network when it finishes.
type Gang struct {
	s *gangState
}

type gangState struct {
	n      int
	spin   int // per-wait spin budget: spinBudget, or 0 when oversubscribed
	fn     func(member int)
	wave   atomic.Int64    // dispatch sequence, incremented once per Run
	start  []chan struct{} // per-worker park/wake fallback, index 1..n-1
	parked []atomic.Bool   // worker w is blocked on start[w], index 1..n-1
	bar    barrier         // intra-Run phase barrier (Barrier method)
	end    barrier         // Run-completion barrier

	abort    atomic.Bool
	panicked atomic.Pointer[TaskPanic]
	closed   atomic.Bool
	broken   bool // only the dispatching goroutine reads or writes this

	// Imbalance sampling: every gangSampleEvery-th Run measures each
	// member's busy time; see Stats.
	waves     int64
	published int64 // waves already added to cWaves
	sampling  bool
	busyNS    []int64
	samples   int64
	sumImb    float64

	// Registry instruments (nil-safe when no default registry is set).
	cWaves *obs.Counter
	gImb   *obs.Gauge
}

// NewGang starts a gang of the given size (clamped to >= 1). members-1
// worker goroutines are spawned immediately and live until Close or
// finalization.
func NewGang(members int) *Gang {
	if members < 1 {
		members = 1
	}
	reg := obs.Default()
	s := &gangState{
		n:      members,
		start:  make([]chan struct{}, members),
		parked: make([]atomic.Bool, members),
		busyNS: make([]int64, members),
		cWaves: reg.Counter("shard.waves"),
		gImb:   reg.Gauge("shard.imbalance"),
	}
	if members <= runtime.GOMAXPROCS(0) {
		s.spin = spinBudget
	}
	s.bar.n = int32(members)
	s.bar.spin = s.spin
	s.end.n = int32(members)
	s.end.spin = s.spin
	for w := 1; w < members; w++ {
		s.start[w] = make(chan struct{}, 1)
		go s.worker(w)
	}
	g := &Gang{s: s}
	if members > 1 {
		runtime.SetFinalizer(g, (*Gang).Close)
	}
	return g
}

// Run executes fn(0) .. fn(n-1) concurrently, one call per member, and
// returns when all have finished. The caller runs member 0. fn may call
// Barrier to synchronize phases across members.
func (g *Gang) Run(fn func(member int)) {
	s := g.s
	switch {
	case s.broken:
		panic(fmt.Sprintf("par: Run on a gang broken by an earlier panic: %v", s.panicked.Load().Value))
	case s.closed.Load():
		panic("par: Run on a closed gang")
	}
	s.waves++
	s.sampling = s.waves%gangSampleEvery == 0
	s.fn = fn
	s.wave.Add(1)
	// Wake only workers that gave up spinning and parked; a worker still
	// in its dispatch spin observes the wave counter directly. The Dekker
	// ordering with the worker (parked.Store then wave recheck, against
	// wave.Add then parked.Load here) guarantees no wakeup is lost. The
	// send must not block: a worker that observed the new wave during its
	// park attempt leaves without draining its token, so the buffer may
	// still be full — a worker can never be blocked on a non-empty
	// channel, so a full buffer already guarantees the next park wakes.
	for w := 1; w < s.n; w++ {
		if s.parked[w].Load() {
			select {
			case s.start[w] <- struct{}{}:
			default:
			}
		}
	}
	s.runMember(0)
	if s.n > 1 {
		s.end.wait(&s.abort)
	}
	if tp := s.panicked.Load(); tp != nil {
		s.broken = true
		panic(tp)
	}
	// Every member has returned from fn. Dropping it keeps the resident
	// workers, which reference s, from keeping whatever fn references alive
	// (a network's wave closure references the network, which holds g).
	s.fn = nil
	if s.sampling {
		s.recordSample()
	}
}

// Barrier blocks until every member of the current Run arrives. It must be
// called the same number of times by every member, only from inside the
// function passed to Run. If another member panicked, Barrier unwinds this
// member instead of deadlocking.
func (g *Gang) Barrier() {
	s := g.s
	if s.n == 1 {
		return
	}
	if !s.bar.wait(&s.abort) {
		panic(gangAbort{})
	}
}

// Stats reports dispatch and load-balance statistics: waves is the number
// of Run calls so far; imbalance is the mean, over sampled waves, of the
// slowest member's busy time divided by the mean busy time (1 = perfectly
// balanced, n = all work on one member; 0 before the first sample).
func (g *Gang) Stats() (waves int64, imbalance float64) {
	s := g.s
	if s.samples > 0 {
		imbalance = s.sumImb / float64(s.samples)
	}
	return s.waves, imbalance
}

// Close shuts the resident workers down and publishes the final wave count
// to the registry. Idempotent; Run after Close panics.
func (g *Gang) Close() {
	s := g.s
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	runtime.SetFinalizer(g, nil)
	for w := 1; w < s.n; w++ {
		close(s.start[w])
	}
	s.cWaves.Add(s.waves - s.published)
}

// runMember executes the current wave's function as member w, capturing a
// panic into the shared abort state. A gangAbort (unwinding out of Barrier
// after another member's panic) is swallowed: the original panic is the
// one to report.
func (s *gangState) runMember(w int) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(gangAbort); ok {
				return
			}
			s.panicked.CompareAndSwap(nil, &TaskPanic{Task: w, Value: v, Stack: debug.Stack()})
			s.abort.Store(true)
		}
	}()
	if s.sampling {
		t0 := time.Now()
		s.fn(w)
		s.busyNS[w] = time.Since(t0).Nanoseconds()
		return
	}
	s.fn(w)
}

// worker is the resident loop of members 1..n-1. The hot path spins on the
// wave counter — Run is called once per simulated cycle, so the next wave
// usually arrives within the spin budget and no scheduler round trip is
// paid. When the budget runs out (the engine is fast-forwarding through
// quiescence, or the run ended), the worker announces itself parked and
// blocks on its wake channel; Run wakes parked workers explicitly and
// Close releases them by closing the channel. Tokens never start a wave —
// only the wave counter does — so a token deposited during the
// park/observe race merely causes one spurious unpark.
func (s *gangState) worker(w int) {
	var seen int64
	for {
		for spins := 0; s.wave.Load() == seen; spins++ {
			if s.closed.Load() {
				return
			}
			if spins < s.spin {
				continue
			}
			s.parked[w].Store(true)
			if s.wave.Load() != seen {
				s.parked[w].Store(false)
				break
			}
			if _, ok := <-s.start[w]; !ok {
				return
			}
			s.parked[w].Store(false)
			spins = 0
		}
		seen++
		s.runMember(w)
		s.end.wait(&s.abort)
	}
}

// recordSample folds one sampled wave's busy times into the imbalance
// aggregate and publishes to the registry. The wave counter is published
// in gangSampleEvery batches (the remainder goes out at Close), mirroring
// the engine's batched counter updates.
func (s *gangState) recordSample() {
	var max, sum int64
	for _, b := range s.busyNS {
		if b > max {
			max = b
		}
		sum += b
	}
	if max <= 0 || sum <= 0 {
		return
	}
	imb := float64(max) * float64(s.n) / float64(sum)
	s.sumImb += imb
	s.samples++
	s.gImb.Set(imb)
	s.cWaves.Add(s.waves - s.published)
	s.published = s.waves
}

// gangAbort is the sentinel panic Barrier raises to unwind a member after
// another member's panic poisoned the wave.
type gangAbort struct{}

// barrier is a centralized sense-reversing spin barrier. Waiters spin on
// the generation counter — with balanced tiles the other members arrive
// within the spin budget, so the common case is a handful of atomic
// operations with no scheduler involvement — and fall back to yielding the
// processor once the budget runs out, so a gang wider than GOMAXPROCS
// still makes progress.
type barrier struct {
	n     int32
	spin  int // per-wait spin budget before falling back to Gosched
	count atomic.Int32
	gen   atomic.Uint32
}

// wait blocks until all n members arrive, returning true. While spinning
// it polls abort: a raised abort releases the waiter immediately with
// false, leaving the barrier poisoned (arrival counts no longer match) —
// callers must not reuse a gang after an aborted wave.
func (b *barrier) wait(abort *atomic.Bool) bool {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return true
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if abort.Load() {
			return false
		}
		if spins >= b.spin {
			runtime.Gosched()
		}
	}
	return true
}
