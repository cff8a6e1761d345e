package core

// The experiment cache: every runner in this package is a pure function
// of its parameter structs and seed, so results are memoized on disk and
// reused across figure regenerations, ablation runs, and CI jobs. Lookups
// happen per run inside execute, in the run's Session's cache, which is
// where par.Parallel workers land — a warm sweep stays parallel (all
// workers hit), and a cold sweep still fans its misses out across cores.
// Observed runs (Hooks set) skip the cache in that same function.

import (
	"noceval/internal/closedloop"
	"noceval/internal/expcache"
	"noceval/internal/obs"
)

// CacheSchemaVersion salts every experiment-cache key. Bump it whenever a
// change alters simulation results — router timing, RNG streams, traffic
// processes, methodology defaults — so every stale entry becomes
// unreachable at once and sweeps recompute from scratch.
const CacheSchemaVersion = "noceval-core-v1"

// openCache opens s's cache under dir. Its traffic publishes into the
// process-wide registry when one is installed, so commands that serve
// live metrics install the registry first.
func (s *Session) openCache(dir string) error {
	c, err := expcache.Open(dir, CacheSchemaVersion)
	if err != nil {
		return err
	}
	c.SetMetrics(obs.Default())
	s.exp.Store(c)
	return nil
}

// EnableCache turns on experiment-result caching in the default session,
// backed by the given directory.
func EnableCache(dir string) error { return defaultSession.openCache(dir) }

// DisableCache turns the default session's caching back off. Entries on
// disk are kept.
func DisableCache() { defaultSession.exp.Store(nil) }

// CacheStats reports the default session's cache traffic since
// EnableCache; ok is false when caching is off.
func CacheStats() (s expcache.Stats, ok bool) {
	c := defaultSession.exp.Load()
	if c == nil {
		return expcache.Stats{}, false
	}
	return c.Stats(), true
}

// cachedInfo memoizes compute under (kind, cfg) in c, if not nil. Results
// are only stored on success, and a failed store never fails the run — the
// cache can only trade disk for compute, not correctness. consulted
// reports whether c was actually keyed and queried, hit whether it served
// the result (both feed the run ledger).
func cachedInfo[T any](c *expcache.Cache, kind string, cfg any, compute func() (*T, error)) (res *T, consulted, hit bool, err error) {
	if c == nil {
		res, err = compute()
		return res, false, false, err
	}
	k, err := c.Key(kind, cfg)
	if err != nil {
		res, err = compute()
		return res, false, false, err
	}
	out := new(T)
	if c.Get(k, out) {
		return out, true, true, nil
	}
	res, err = compute()
	if err == nil {
		c.Put(k, res)
	}
	return res, true, false, err
}

// openLoopKey is the cache identity of one open-loop point: the full
// Table I parameter schema plus the offered load and phase lengths.
// Phases are stored post-default so an explicit 10000 and a zero meaning
// "default 10000" share an entry.
type openLoopKey struct {
	Params  NetworkParams
	Rate    float64
	Warmup  int64
	Measure int64
	Drain   int64
}

// batchKey is the cache identity of one batch-model run. The reply model
// is identified by its Name(), which every model parameterizes with its
// latency constants (e.g. "fixed20", "prob20+0.10*300"); custom models
// must follow that convention to be cache-safe.
type batchKey struct {
	Params NetworkParams
	B, M   int
	NAR    float64
	Reply  string
	Kernel *closedloop.KernelConfig
}

// barrierKey is the cache identity of one barrier-model run.
type barrierKey struct {
	Params NetworkParams
	B      int
	Phases int
}

// execKey is the cache identity of one execution-driven run. ExecParams
// is plain data (benchmark name, clock enum, switches, seed), so it
// embeds directly.
type execKey struct {
	Params NetworkParams
	Exec   ExecParams
}
