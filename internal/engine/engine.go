// Package engine owns the cycle loop of every run mode. The paper's
// central claim is that one network model serves open-loop, closed-loop
// (batch and barrier), trace-driven and execution-driven evaluation; this
// package makes that literal: each methodology implements Driver (per-cycle
// injection, a stop condition, and idle scheduling hints) — openloop, the
// batch and barrier models of closedloop, trace replay and the cmp system —
// and RunOutcome drives the network. No other code steps a network.
//
// The engine also owns the simulator's biggest idle-time optimization:
// when the driver declares itself idle and the network is quiescent, the
// loop fast-forwards the clock to the next scheduled wakeup (a
// reply-latency completion, a batch timer tick, the next trace event, a
// telemetry sampling point) instead of ticking empty cycles. Fast-forward
// is exact, not approximate: a cycle is skipped only when neither the
// driver (no injections, no RNG draws) nor the network (no flits anywhere)
// nor the observer (no sample due) would do anything in it, so results are
// bit-identical to full stepping — the determinism regression tests and
// the golden-figure gate enforce this.
package engine

import (
	"context"

	"noceval/internal/obs"
)

// NoEvent is returned by Driver.NextEvent when the driver has no scheduled
// future work.
const NoEvent = int64(-1)

// Driver is one run methodology's per-cycle behaviour. Run calls, in
// order and once per iteration: Done (stop check), Idle (fast-forward and
// stall check), and then either jumps the clock or calls Cycle (timer
// ticks, reply injection, request generation — everything the run mode
// does before the network computes) and Network.Step. Idle and
// NextEvent exist only to enable fast-forward and are never required for
// correctness: a driver may conservatively return false/NoEvent.
type Driver interface {
	// Cycle performs the driver's work for cycle now, before the network
	// steps: injections, scheduled events, per-cycle bookkeeping.
	Cycle(now int64)
	// Done reports whether the run has completed. It is checked at the top
	// of every iteration, before the deadline.
	Done(now int64) bool
	// Idle reports that Cycle would be a strict no-op — no injections, no
	// RNG draws, no state changes — for every cycle from now until
	// NextEvent(now). It is called first on every iteration, stepped or
	// skipped, before the network is asked whether it is quiescent, so it
	// must be O(1): a driver keeps a count of the work it has (the batch
	// driver's ready set) instead of looking for it here.
	Idle(now int64) bool
	// NextEvent returns the earliest future cycle at which Cycle must run
	// again while idle (scheduled reply, timer tick, timeline bucket
	// boundary), or NoEvent when nothing is scheduled.
	NextEvent(now int64) int64
}

// Network is the engine's view of the simulated fabric. *network.Network
// and the cmp package's Fabric implementations satisfy it.
type Network interface {
	// Now returns the current cycle.
	Now() int64
	// Step advances the fabric one cycle.
	Step()
	// Quiescent reports whether no traffic remains anywhere in the fabric.
	Quiescent() bool
}

// FastForwarder is implemented by fabrics whose clock can jump over
// provably empty cycles. *network.Network implements it; fabrics that do
// not are always stepped cycle by cycle.
type FastForwarder interface {
	// SkipTo advances the clock to the given cycle; the fabric must be
	// quiescent and the target must not lie beyond NextObsSampleAt.
	SkipTo(cycle int64)
	// NextObsSampleAt returns the next telemetry sampling cycle, or -1
	// when sampling is off.
	NextObsSampleAt() int64
}

// InternalScheduler is implemented by fabrics that can schedule their own
// future work even while empty — the recovery NIC's retransmission
// timeouts. The engine folds the next internal event into its fast-forward
// wake-up, and a run is declared stalled only when the driver, the fabric,
// and the internal schedule all have nothing left.
type InternalScheduler interface {
	// NextInternalEventAt returns the next cycle at which the fabric will
	// act on its own, or -1 when nothing is scheduled.
	NextInternalEventAt() int64
}

// Config parameterizes one engine run.
type Config struct {
	// Net is the fabric to drive.
	Net Network
	// Ctx, when non-nil, makes the run cancellable: the loop polls
	// Ctx.Err() at every fast-forward boundary and at least once every
	// cancelCheckEvery stepped cycles, so a cancelled run returns within a
	// bounded number of cycles instead of finishing its schedule. A
	// cancelled run reports Completed == false and Canceled == true; the
	// simulation state is abandoned mid-flight, so its partial results
	// must not be recorded or cached. Nil keeps the legacy uncancellable
	// loop with zero per-cycle overhead beyond a nil check.
	Ctx context.Context
	// Deadline, when positive, aborts the run once Now reaches it (the
	// openloop drain limit, the closed-loop MaxCycles). Run then returns
	// completed == false.
	Deadline int64
	// Progress, when non-nil, receives a heartbeat tick after every
	// stepped cycle (fast-forwarded cycles produce no ticks).
	Progress *obs.Progress
	// Horizon, when non-nil, supplies the expected total cycle count for
	// progress ETAs as a function of the current cycle (the openloop
	// horizon grows when the run enters its drain phase). Nil means
	// unknown.
	Horizon func(now int64) int64
	// OnStall, when non-nil, arms the deadlock watchdog: when the engine
	// proves the run can never finish — the driver is not done yet idle
	// with no scheduled event, the network is quiescent, and no internal
	// event (NIC timeout) is pending — OnStall is invoked and Run returns
	// immediately with completed == false, instead of burning cycles to
	// the deadline. When nil the engine keeps stepping (a driver may be
	// idle-with-no-event and still complete on a later Done check).
	OnStall func(now int64)
}

// Outcome summarizes one engine run: where the clock ended, whether the
// driver completed, and how the clock advance split between cycles that
// were actually stepped and cycles the quiescence fast-forward jumped
// over. The split feeds the run ledger's pipeline-throughput and
// skip-ratio columns; it never affects simulation results.
type Outcome struct {
	End       int64
	Completed bool
	// Canceled reports that the run was aborted by Config.Ctx rather than
	// by its own stop condition or deadline. Canceled implies
	// Completed == false, and the run's partial state is unusable.
	Canceled bool
	// Stepped counts cycles executed through Driver.Cycle + Network.Step;
	// Skipped counts cycles the clock jumped without stepping them.
	Stepped int64
	Skipped int64
}

// SkipRatio returns Skipped/(Stepped+Skipped), 0 for an empty run.
func (o Outcome) SkipRatio() float64 {
	if total := o.Stepped + o.Skipped; total > 0 {
		return float64(o.Skipped) / float64(total)
	}
	return 0
}

// metricsFlushEvery batches the engine's per-cycle counting into
// occasional atomic adds on the process-wide registry, so the live
// endpoint sees progress during long runs without an atomic per cycle.
const metricsFlushEvery = 1 << 16

// cancelCheckEvery bounds how many cycles may be stepped between two
// Ctx.Err() polls. Stepping a cycle costs microseconds at most, so 1k
// cycles keeps cancellation latency well under a millisecond while
// amortizing the context poll (a mutex acquisition in cancelCtx) to
// noise. Fast-forward jumps of any length always re-poll at the
// boundary.
const cancelCheckEvery = 1 << 10

// RunOutcome drives the network until the driver completes or the deadline
// passes, returning the final cycle, whether the driver completed, and the
// stepped/fast-forwarded cycle split.
func RunOutcome(cfg Config, d Driver) Outcome {
	net := cfg.Net
	ff, canSkip := net.(FastForwarder)
	is, hasInternal := net.(InternalScheduler)
	// Cross-run engine metrics live in the process-wide registry; with no
	// default registry installed these are nil and the loop pays only the
	// local increments. Counter lookup is get-or-create, so every run
	// shares the same instruments.
	reg := obs.Default()
	cStepped := reg.Counter("engine.cycles_stepped")
	cSkipped := reg.Counter("engine.cycles_fastforwarded")
	reg.Counter("engine.runs").Inc()
	var out Outcome
	var unflushed int64
	finish := func(completed bool) Outcome {
		out.End = net.Now()
		out.Completed = completed
		cStepped.Add(unflushed)
		return out
	}
	// untilCancelCheck counts down the stepped cycles to the next context
	// poll; starting at zero makes an already-cancelled context return
	// before the first cycle is stepped.
	var untilCancelCheck int64
	for {
		now := net.Now()
		if cfg.Ctx != nil {
			if untilCancelCheck--; untilCancelCheck < 0 {
				untilCancelCheck = cancelCheckEvery
				if cfg.Ctx.Err() != nil {
					out.Canceled = true
					return finish(false)
				}
			}
		}
		if d.Done(now) {
			return finish(true)
		}
		if cfg.Deadline > 0 && now >= cfg.Deadline {
			return finish(false)
		}
		if d.Idle(now) && net.Quiescent() {
			internal := NoEvent
			if hasInternal {
				internal = is.NextInternalEventAt()
			}
			if cfg.OnStall != nil && d.NextEvent(now) == NoEvent && internal == NoEvent {
				// Provably stuck: the driver is idle forever, the fabric is
				// empty, and nothing is scheduled. Running further cycles
				// (or to the deadline) would change nothing; fail now.
				// Without an OnStall handler the engine keeps its legacy
				// behaviour (run to Done or the deadline), because a driver
				// may be idle-with-no-event yet still complete on a later
				// Done(now) check.
				cfg.OnStall(now)
				return finish(false)
			}
			if canSkip {
				if next := wakeAt(cfg, ff, d, now, internal); next > now {
					ff.SkipTo(next)
					out.Skipped += next - now
					cSkipped.Add(next - now)
					cfg.Progress.Skip(next - now)
					// A jump may have crossed an arbitrary stretch of
					// simulated time; re-poll the context at the boundary.
					untilCancelCheck = 0
					continue
				}
			}
		}
		d.Cycle(now)
		net.Step()
		out.Stepped++
		if unflushed++; unflushed >= metricsFlushEvery {
			cStepped.Add(unflushed)
			unflushed = 0
		}
		if cfg.Progress != nil {
			var h int64
			if cfg.Horizon != nil {
				h = cfg.Horizon(net.Now())
			}
			cfg.Progress.Tick(net.Now(), h)
		}
	}
}

// wakeAt returns the next cycle at which anything can happen while the
// run is idle and quiescent: the driver's next scheduled event, the
// fabric's next internal event (NIC timeout), or the observer's next
// sampling point, clamped to the deadline. It returns a value <= now when
// nothing justifies a skip (an event is due now, or nothing is scheduled
// and there is no deadline to run out).
func wakeAt(cfg Config, ff FastForwarder, d Driver, now, internal int64) int64 {
	next := d.NextEvent(now)
	if internal >= 0 {
		if internal <= now {
			return now // an internal event is due this very cycle
		}
		if next == NoEvent || internal < next {
			next = internal
		}
	}
	if s := ff.NextObsSampleAt(); s >= 0 {
		if s <= now {
			// A sample is due this very cycle (we just fast-forwarded to
			// it): the cycle must be stepped, not skipped over.
			return now
		}
		if next == NoEvent || s < next {
			next = s
		}
	}
	if cfg.Deadline > 0 && (next == NoEvent || next > cfg.Deadline) {
		// Nothing scheduled before the deadline: every remaining cycle is
		// empty, so jump straight to the abort point.
		next = cfg.Deadline
	}
	return next
}
