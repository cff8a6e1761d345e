package core

// The run ledger: execute appends one structured record per run — spec
// hash, cache outcome, wall time, simulated cycles, the engine's
// stepped/fast-forwarded split, and fault counters — when the run's
// Session has a ledger. The same scope also maintains the
// core.runs_started/finished counters in the process-wide registry, so
// the live export endpoint can show sweep progress even with it off.

import (
	"runtime"
	"time"

	"noceval/internal/engine"
	"noceval/internal/expcache"
	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/obs/ledger"
	"noceval/internal/openloop"
)

// runScope collects one run's telemetry for execute. A nil scope (nothing
// is observing: no ledger, no default registry) is a no-op on every
// method, so the disabled path costs two atomic loads per run.
type runScope struct {
	led   *ledger.Ledger
	reg   *obs.Registry
	start time.Time
	rec   ledger.Record
}

// summary is what a finished run contributes to its ledger record.
type summary struct {
	cycles  int64
	faults  *fault.Stats           // nil for a fault-free run
	classes []openloop.ClassResult // nil for a class-free run
}

// beginRun opens a scope for one run of the given mode, or nil when
// neither s has a ledger nor a default registry is installed. The record is
// stamped with the content hash of key — the same hash the experiment
// cache addresses results by, so ledger lines join against cache entries —
// but only when a ledger will actually store it.
func (s *Session) beginRun(kind string, key any) *runScope {
	led := s.led.Load()
	reg := obs.Default()
	if led == nil && reg == nil {
		return nil
	}
	reg.Counter("core.runs_started").Inc()
	sc := &runScope{
		led:   led,
		reg:   reg,
		start: time.Now(),
		rec:   ledger.Record{Kind: kind, Engine: "activeset"},
	}
	if led != nil {
		if k, err := expcache.KeyFor(CacheSchemaVersion, kind, key); err == nil {
			sc.rec.Spec = k.Hash()
		}
	}
	return sc
}

// hooks returns the scope's OnEngine and Inspect hooks for a run config,
// nil for a nil scope so the disabled path installs nothing.
func (s *runScope) hooks() (func(engine.Outcome), func(*network.Network)) {
	if s == nil {
		return nil, nil
	}
	return s.onEngine, s.shards
}

// onEngine captures the stepped/fast-forwarded split. Never called on a
// cache hit (no engine runs).
func (s *runScope) onEngine(eo engine.Outcome) {
	s.rec.Stepped = eo.Stepped
	s.rec.Skipped = eo.Skipped
	s.rec.SkipRatio = eo.SkipRatio()
}

// shards captures the sharded-simulation shape (tile count, mean load
// imbalance) off the network before the run mode releases it. Sequential
// runs leave the fields zero so the record omits them.
func (s *runScope) shards(net *network.Network) {
	if k, _, imb := net.ShardStats(); k > 1 {
		s.rec.Shards = k
		s.rec.ShardImbalance = imb
	}
}

// finish completes the record — cache outcome (as cachedInfo reports it),
// wall time, simulated cycles, pipeline throughput, worker-pool snapshot,
// fault and per-class counters — and appends it to the ledger.
func (s *runScope) finish(sum summary, consulted, hit bool, err error) {
	if s == nil {
		return
	}
	s.reg.Counter("core.runs_finished").Inc()
	if s.led == nil {
		return
	}
	s.rec.Cached, s.rec.Hit = consulted, hit
	wall := time.Since(s.start)
	s.rec.Time = s.start.UTC().Format(time.RFC3339Nano)
	s.rec.WallNS = wall.Nanoseconds()
	s.rec.Cycles = sum.cycles
	if wall > 0 && sum.cycles > 0 {
		s.rec.CyclesPerSec = float64(sum.cycles) / wall.Seconds()
	}
	s.rec.Workers = runtime.GOMAXPROCS(0)
	if s.reg != nil {
		s.rec.ParWaves = s.reg.Counter("par.waves").Value()
		s.rec.ParTasks = s.reg.Counter("par.tasks_done").Value()
	}
	if fs := sum.faults; fs != nil {
		s.rec.FaultInjected = fs.CorruptInjected + fs.DropInjected
		s.rec.FaultRetried = fs.Retried
		s.rec.FaultDead = fs.Abandoned
	}
	// Class-free runs append nothing here, so their ledger lines stay
	// byte-identical to schema 1.
	for _, cr := range sum.classes {
		s.rec.ClassNames = append(s.rec.ClassNames, cr.Name)
		s.rec.ClassInjected = append(s.rec.ClassInjected, cr.Injected)
		s.rec.ClassDelivered = append(s.rec.ClassDelivered, cr.Delivered)
		s.rec.ClassAvgLatency = append(s.rec.ClassAvgLatency, cr.AvgLatency)
	}
	if err != nil {
		s.rec.Err = err.Error()
	}
	s.led.Append(s.rec)
}
