// Package runtime is the shared warm-geometry runtime behind every
// surface of the library: the cdb.DB handle, the cdbserve HTTP service
// and the command-line tools all drive the same three mechanisms:
//
//   - a Registry of parsed constraint database programs (parse once,
//     sample forever),
//   - a singleflight LRU Cache of prepared samplers, so the expensive
//     rounding/well-boundedness/volume setup is paid once per
//     (database, target, options) and every later request binds its
//     seed to the warm geometry — including negative entries for
//     provably empty targets (an out-of-support time slice replays as
//     an O(1) cached verdict instead of a repeated failed build), and
//   - a bounded worker Pool with a batch Executor that coalesces
//     identical concurrent draws.
//
// Every surface reaches them the same way: DatabaseEntry.Plan resolves
// a relation or query name to its canonical plan, and Exec runs a
// canonical plan — sampling, streaming, measuring — from warm geometry
// (∃ plans eliminated first, within an atom budget), a cached empty
// verdict, or Algorithm 2's per-call projection engine.
//
// The paper's pipeline — prepare a (γ, ε, δ)-generator once, then draw
// cheap almost-uniform samples and volume estimates from it — is a
// connection/statement lifecycle, and this package is the connection
// pool. Everything here is safe for concurrent use.
package runtime

import (
	"hash/fnv"
	"runtime"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/quality"
)

// Config tunes the runtime. The zero value picks sensible defaults.
type Config struct {
	// PoolSize is the sampling worker pool size (default GOMAXPROCS). It
	// also bounds how many preparation units — tuples and volume phases
	// — run beside their callers at once.
	PoolSize int
	// CacheSize caps each prepared LRU — samplers and alibi preparations
	// (default 64).
	CacheSize int
	// MaxDatabases caps the registry (default 1024; negative = unbounded).
	MaxDatabases int
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	switch {
	case c.MaxDatabases == 0:
		c.MaxDatabases = 1024
	case c.MaxDatabases < 0:
		c.MaxDatabases = 0 // registry convention: 0 = unbounded
	}
	return c
}

// Runtime owns the registry, the prepared caches and the worker pool —
// one shared, concurrency-safe instance per handle or server.
type Runtime struct {
	cfg      Config
	registry *Registry
	cache    *SamplerCache
	alibis   *Cache[*PreparedAlibi]
	symbolic *Cache[*SymbolicEntry]
	pool     *Pool
	exec     *Executor

	// fan spreads every preparation's tuples and volume phases over
	// goroutines of their own, at most PoolSize at once. They do not run
	// on the pool: a d = 6 phase holds its thread for ~0.1 s, and no
	// warm draw should queue behind it.
	fan *core.Fanout

	// costs is the observed per-key cost table: preparation time, walk
	// effort and elimination effort attributed to the same canonical
	// keys the caches use — the measured input of a cost-based planner.
	costs *obs.Costs

	// quality accumulates per-sampler statistical diagnostics (cell
	// counts, member shares, mixing) under the same keys; auditor is
	// the background self-audit cross-checking warm entries against
	// exact symbolic volumes.
	quality *quality.Tracker
	auditor *Auditor
}

// maxCostKeys bounds the observed-cost table (plan keys plus their
// per-disjunct "key#i" sub-entries, symbolic and alibi keys). Evictions
// drop their keys' cells, so the table holds resident keys; the bound
// catches only cells a draw records after its entry left.
const maxCostKeys = 4096

// NewWithSink builds a runtime whose events report through an obs.Sink
// with full per-kind cache attribution. sink may be nil.
func NewWithSink(cfg Config, sink obs.Sink) *Runtime {
	cfg = cfg.withDefaults()
	costs := obs.NewCosts(maxCostKeys)
	qt := quality.NewTracker(0)
	pool := NewPoolWithSink(cfg.PoolSize, sink)
	rt := &Runtime{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxDatabases),
		cache:    NewKindCache[*Prepared](cfg.CacheSize, obs.KindPlan, sink),
		alibis:   NewKindCache[*PreparedAlibi](cfg.CacheSize, obs.KindAlibi, sink),
		symbolic: NewKindCache[*SymbolicEntry](cfg.CacheSize, obs.KindSymbolic, sink),
		pool:     pool,
		exec:     newExecutor(pool, sink, costs),
		fan:      core.NewFanout(cfg.PoolSize),
		costs:    costs,
		quality:  qt,
	}
	rt.exec.quality = qt
	rt.auditor = newAuditor(rt, sink)
	rt.cache.onEvict = rt.planEvicted
	rt.symbolic.onEvict = func(key string, _ *SymbolicEntry) { rt.costs.Forget(key) }
	rt.alibis.onEvict = func(key string, _ *PreparedAlibi) { rt.costs.Forget(key) }
	return rt
}

// planEvicted drops an evicted plan's audit registration, quality
// diagnostics and observed costs, so the plan cache's capacity bounds
// the memory they keep too. A draw still running on the evicted sampler
// may bind its key in the tracker or the cost table again; their own
// key caps bound such leftovers.
func (rt *Runtime) planEvicted(key string, ps *Prepared) {
	rt.auditor.forget(key, ps)
	rt.quality.Forget(key)
	rt.costs.Forget(key)
}

// Close stops the background auditor, then the worker pool after
// draining queued jobs.
func (rt *Runtime) Close() {
	rt.auditor.Close()
	rt.pool.Close()
}

// Registry returns the database registry.
func (rt *Runtime) Registry() *Registry { return rt.registry }

// Cache returns the prepared-sampler cache.
func (rt *Runtime) Cache() *SamplerCache { return rt.cache }

// AlibiCache returns the prepared-alibi cache.
func (rt *Runtime) AlibiCache() *Cache[*PreparedAlibi] { return rt.alibis }

// SymbolicCache returns the prepared-symbolic cache: eliminated
// (quantifier-free DNF) relations, plus their lazily computed exact
// volumes, keyed by canonical plan hash.
func (rt *Runtime) SymbolicCache() *Cache[*SymbolicEntry] { return rt.symbolic }

// Pool returns the bounded worker pool.
func (rt *Runtime) Pool() *Pool { return rt.pool }

// Costs returns the observed per-key cost table.
func (rt *Runtime) Costs() *obs.Costs { return rt.costs }

// Quality returns the statistical-quality tracker.
func (rt *Runtime) Quality() *quality.Tracker { return rt.quality }

// Auditor returns the background self-auditor. It exists from
// construction; its background loop runs only after Start.
func (rt *Runtime) Auditor() *Auditor { return rt.auditor }

// RecordVolumeAccuracy adds one volume estimate's (ε, δ) ledger under
// key — requested vs achieved half-width and confidence.
func (rt *Runtime) RecordVolumeAccuracy(key string, acc core.VolumeAccuracy) {
	rt.costs.For(key).RecordVolume(
		acc.RequestedEps, acc.AchievedEps, acc.RequestedDelta, acc.AchievedDelta, acc.Capped)
}

// Executor returns the batch executor over the pool.
func (rt *Runtime) Executor() *Executor { return rt.exec }

// SamplerKey is the prepared cache key: database, target kind ("rel",
// "query", "slice", "window", "alibi"), target name and the canonical
// options fingerprint.
func SamplerKey(dbID, kind, name, optsKey string) string {
	return dbID + "\x1f" + kind + "\x1f" + name + "\x1f" + optsKey
}

// PrepSeedFor derives the preparation seed from the cache key, so the
// prepared geometry — and therefore every response — is a pure function
// of (database, target, options), stable across restarts.
func PrepSeedFor(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
