package cdb

// The DB handle: the package's single public entry point for warm,
// concurrent, cancellable sampling. Open parses a program once and
// returns a handle owning the shared runtime — a registry, the
// singleflight prepared-sampler LRU and a bounded worker pool — so the
// paper's pipeline (prepare a (γ, ε, δ)-generator once, then draw cheap
// almost-uniform samples and volume estimates from it) becomes a
// connection/statement lifecycle, in the database/sql tradition: the
// handle is cheap to share, safe for concurrent use, and every method
// takes a context honoured inside the sampling hot loops.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/spacetime"
	"repro/internal/walk"
)

// WalkKind selects the Markov chain driving the samplers.
type WalkKind = walk.Kind

// The available walks: the paper's lazy grid walk (faithful), the ball
// walk, and hit-and-run (fastest practical mixing, the default).
const (
	WalkGrid      WalkKind = walk.GridWalk
	WalkBall      WalkKind = walk.BallWalk
	WalkHitAndRun WalkKind = walk.HitAndRun
)

// ErrClosed reports a call on a closed DB handle.
var ErrClosed = errors.New("cdb: database handle is closed")

// ErrNeedsProjection reports an ∃ plan whose Fourier–Motzkin
// elimination would exceed the runtime's atom budget, so it has no
// cacheable prepared sampler. An ∃ plan within the budget is eliminated
// once and its quantifier-free result prepared under the plan's key,
// like any relation. DB.Sampler and Expr.Sampler return ErrNeedsProjection
// for plans past the budget; the other sampling terminals (SampleN,
// Samples, Volume, Reconstruct, Query, QueryVolume) run those plans on
// Algorithm 2's per-call projection generator inside the plan executor
// instead.
var ErrNeedsProjection = runtime.ErrNeedsProjection

// dbConfig collects the functional options of Open/OpenDatabase.
type dbConfig struct {
	opts      Options
	cacheSize int
	poolSize  int
	workers   int
	prepSeed  *uint64 // nil: derived from the cache key
	audit     AuditConfig
	auditSet  bool
}

// Option configures a DB handle at Open time.
type Option func(*dbConfig)

// WithOptions replaces the handle's sampling Options wholesale (walk
// kind, (γ, ε, δ), step and rounding budgets). Later WithWalk/WithParams
// options apply on top of it.
func WithOptions(opts Options) Option {
	return func(c *dbConfig) { c.opts = opts }
}

// WithWalk selects the Markov chain (default WalkHitAndRun).
func WithWalk(k WalkKind) Option {
	return func(c *dbConfig) { c.opts.Walk = k }
}

// WithParams sets the approximation parameters (γ, ε, δ) of
// Definition 2.2 (default γ=0.2, ε=0.25, δ=0.1).
func WithParams(p Params) Option {
	return func(c *dbConfig) { c.opts.Params = p }
}

// WithCacheSize caps the handle's prepared-sampler LRU (default 64).
func WithCacheSize(n int) Option {
	return func(c *dbConfig) { c.cacheSize = n }
}

// WithPoolSize sets the sampling worker pool size (default GOMAXPROCS),
// which also bounds how many preparation units — tuples and volume
// phases — run in parallel.
func WithPoolSize(n int) Option {
	return func(c *dbConfig) { c.poolSize = n }
}

// WithWorkers sets the logical worker count per SampleN call (default
// min(4, pool size)). Output remains deterministic in the worker count:
// worker i owns the sample indices ≡ i (mod workers).
func WithWorkers(n int) Option {
	return func(c *dbConfig) { c.workers = n }
}

// WithPrepSeed pins the handle's sampling randomness: the preparation
// seed for relation/query samplers built through Sampler/SampleN/
// Volume/Samples, and the base of the per-call seed sequence SampleN
// and Samples draw from. By default both derive from the program,
// target and options (cache-key hashing), so results are already
// stable across processes; pin a seed only to decouple them from the
// program text. Spacetime preparations (TimeSlice, TimeWindow, Alibi)
// always use the key-derived seed, keeping their replies shared across
// handles regardless of this option.
func WithPrepSeed(seed uint64) Option {
	return func(c *dbConfig) { c.prepSeed = &seed }
}

// WithAudit starts the handle's background self-audit: a small worker
// pool that periodically re-draws batches from warm cache entries and
// cross-checks their empirical cell masses and disjunct shares against
// exact symbolic volumes (where the target is inside the
// symbolic-capable fragment). Failing entries are flagged in CacheStats
// and Explain — never silently evicted. The zero AuditConfig picks
// defaults but leaves the loop stopped; set Interval > 0 to run it.
// Audits also run on demand through DB.AuditOnce regardless of the
// interval.
func WithAudit(cfg AuditConfig) Option {
	return func(c *dbConfig) { c.audit = cfg; c.auditSet = true }
}

// CallOption overrides the handle's sampling options for a single call
// on DB.Sampler/SampleN/SampleNSeeded/Samples/Volume (and, via
// Expr.WithOptions and friends, per expression). The effective options
// key into the prepared-sampler cache, so a per-call override warms its
// own entry and replays against it.
type CallOption func(*Options)

// CallOptions replaces the options wholesale for one call; later
// CallWalk/CallParams options apply on top of it.
func CallOptions(opts Options) CallOption {
	return func(o *Options) { *o = opts }
}

// CallWalk selects the Markov chain for one call.
func CallWalk(k WalkKind) CallOption {
	return func(o *Options) { o.Walk = k }
}

// CallParams sets the approximation parameters (γ, ε, δ) for one call.
func CallParams(p Params) CallOption {
	return func(o *Options) { o.Params = p }
}

// callOpts resolves the effective options of a call: the handle's
// options with the per-call overrides applied.
func (db *DB) callOpts(copts []CallOption) Options {
	opts := db.opts
	for _, o := range copts {
		o(&opts)
	}
	return opts
}

// CacheKindStats is the event and residency snapshot of one prepared
// cache: the sampler (plan), symbolic or alibi cache.
type CacheKindStats struct {
	// Hits counts warm positive entries served (including joins of an
	// in-flight build); NegativeHits counts replayed cached verdicts
	// (empty targets, ∃ plans past the elimination budget,
	// out-of-support slices).
	Hits, NegativeHits int64
	// Misses counts cold builds; Evictions LRU evictions.
	Misses, Evictions int64
	// Entries and NegativeEntries are the cache's CURRENT residency:
	// settled entries in total and how many of them are negative
	// verdicts. An ∃ plan within the elimination budget counts as a
	// positive entry; one past it, as a negative.
	Entries, NegativeEntries int
}

// CacheStats is a snapshot of the handle's prepared-cache and executor
// counters; see DB.CacheStats. The top-level counters aggregate over
// every cache kind (hits include negative hits), preserving the
// original five-counter view; Plan, Symbolic and Alibi break the same
// traffic down per cache.
type CacheStats struct {
	// Hits counts prepared-cache hits across all kinds, including
	// negative entries and joins of an in-flight build.
	Hits int64
	// Misses counts cold builds.
	Misses int64
	// Evictions counts LRU evictions.
	Evictions int64
	// CoalescedDraws counts batched draws served by an identical
	// in-flight draw.
	CoalescedDraws int64
	// BatchJobs counts worker-pool job executions.
	BatchJobs int64

	// Plan, Symbolic and Alibi are the per-kind breakdowns: prepared
	// samplers, eliminated DNF relations and alibi preparations.
	Plan, Symbolic, Alibi CacheKindStats

	// Audit is the background self-audit's counters, including the keys
	// currently flagged by a failed audit (flagged entries stay cached —
	// quarantine is a visible verdict, not a silent eviction).
	Audit AuditStats
}

// kindCounters accumulates one cache kind's event counts.
type kindCounters struct {
	hits, negHits, misses, evictions atomic.Int64
}

// dbHooks is the handle's obs.Sink: per-kind cache event counters plus
// the executor counters.
type dbHooks struct {
	kinds           [3]kindCounters // indexed by obs.CacheKind
	coalesced, jobs atomic.Int64
}

func (h *dbHooks) CacheEvent(kind obs.CacheKind, outcome obs.CacheOutcome) {
	k := &h.kinds[0]
	if int(kind) < len(h.kinds) {
		k = &h.kinds[kind]
	}
	switch outcome {
	case obs.Hit:
		k.hits.Add(1)
	case obs.NegativeHit:
		k.negHits.Add(1)
	case obs.Miss:
		k.misses.Add(1)
	case obs.Eviction:
		k.evictions.Add(1)
	}
}
func (h *dbHooks) CoalescedDraw() { h.coalesced.Add(1) }
func (h *dbHooks) BatchJob()      { h.jobs.Add(1) }

// kindStats snapshots one kind's counters.
func (h *dbHooks) kindStats(kind obs.CacheKind) CacheKindStats {
	k := &h.kinds[kind]
	return CacheKindStats{
		Hits:         k.hits.Load(),
		NegativeHits: k.negHits.Load(),
		Misses:       k.misses.Load(),
		Evictions:    k.evictions.Load(),
	}
}

// DB is a handle on one parsed constraint database program plus the
// shared warm-geometry runtime: a registry, a singleflight LRU of
// prepared samplers and a bounded sampling worker pool. A DB is safe
// for concurrent use by multiple goroutines; open one handle and share
// it, exactly like database/sql.
//
// Every sampling method takes a context.Context honoured inside the
// hot loops — walk mixing epochs, union acceptance rounds, batched
// worker draws — so a cancelled or expired context aborts an in-flight
// call with ctx.Err() within one walk epoch.
type DB struct {
	rt      *runtime.Runtime
	entry   *runtime.DatabaseEntry
	opts    Options
	workers int
	hooks   *dbHooks

	prepSeed *uint64 // nil: derived from the cache key

	seedBase uint64
	seq      atomic.Uint64
	closed   atomic.Bool
}

// Open parses a constraint database program and returns a handle over
// it. See Parse for the grammar. The returned handle owns background
// resources; call Close when done.
func Open(src string, options ...Option) (*DB, error) {
	db, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return openEntry(db, src, options)
}

// OpenDatabase wraps an already-parsed (or programmatically built)
// Database in a handle.
func OpenDatabase(database *Database, options ...Option) (*DB, error) {
	if database == nil {
		return nil, errors.New("cdb: OpenDatabase on a nil database")
	}
	return openEntry(database, "", options)
}

func openEntry(database *Database, src string, options []Option) (*DB, error) {
	cfg := dbConfig{opts: DefaultOptions()}
	for _, o := range options {
		o(&cfg)
	}
	hooks := &dbHooks{}
	rt := runtime.NewWithSink(runtime.Config{
		PoolSize:  cfg.poolSize,
		CacheSize: cfg.cacheSize,
	}, hooks)
	entry, _, err := rt.Registry().RegisterParsed("main", src, database)
	if err != nil {
		rt.Close()
		return nil, err
	}
	if cfg.auditSet {
		rt.Auditor().Configure(cfg.audit)
		rt.Auditor().Start()
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = min(4, rt.Pool().Size())
	}
	h := &DB{
		rt:       rt,
		entry:    entry,
		opts:     cfg.opts,
		workers:  workers,
		hooks:    hooks,
		prepSeed: cfg.prepSeed,
	}
	// Per-call sampling seeds derive from a base that is itself a pure
	// function of the program and options, so a fixed call sequence on a
	// fresh handle is reproducible run to run.
	h.seedBase = runtime.PrepSeedFor(runtime.SamplerKey(entry.ID, "seedbase", src, cfg.opts.CacheKey()))
	if cfg.prepSeed != nil {
		h.seedBase = *cfg.prepSeed
	}
	return h, nil
}

// Close releases the handle's worker pool. Calls after Close return
// ErrClosed; in-flight calls finish normally.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	db.rt.Close()
	return nil
}

// Database returns the parsed program behind the handle.
func (db *DB) Database() *Database { return db.entry.DB }

// CacheStats returns a snapshot of the handle's prepared caches and
// batch-executor counters — the observable that lets tests (and
// operators embedding the handle) assert cache sharing: two
// structurally equal expressions cost one Miss and the replays count as
// Hits. The per-kind breakdowns additionally expose negative-hit
// traffic and each cache's current entry counts (total and negative).
func (db *DB) CacheStats() CacheStats {
	plan := db.hooks.kindStats(obs.KindPlan)
	plan.Entries, plan.NegativeEntries = db.rt.Cache().Counts()
	symbolic := db.hooks.kindStats(obs.KindSymbolic)
	symbolic.Entries, symbolic.NegativeEntries = db.rt.SymbolicCache().Counts()
	alibi := db.hooks.kindStats(obs.KindAlibi)
	alibi.Entries, alibi.NegativeEntries = db.rt.AlibiCache().Counts()
	return CacheStats{
		Hits:           plan.Hits + plan.NegativeHits + symbolic.Hits + symbolic.NegativeHits + alibi.Hits + alibi.NegativeHits,
		Misses:         plan.Misses + symbolic.Misses + alibi.Misses,
		Evictions:      plan.Evictions + symbolic.Evictions + alibi.Evictions,
		CoalescedDraws: db.hooks.coalesced.Load(),
		BatchJobs:      db.hooks.jobs.Load(),
		Plan:           plan,
		Symbolic:       symbolic,
		Alibi:          alibi,
		Audit:          db.rt.Auditor().Stats(),
	}
}

// ObservedCosts returns the handle's per-key observed cost table,
// sorted by key: preparation time, draw/bind/queue time, walk effort
// and symbolic-elimination effort under the same canonical keys the
// caches use (per-disjunct attribution under "key#i"). It covers the
// resident keys: an entry's costs leave the table when the entry is
// evicted. Empty until a terminal verb has run.
func (db *DB) ObservedCosts() []ObservedCost {
	return db.rt.Costs().Each()
}

// ObservedCost returns the observed cost recorded under one resident
// canonical cache key (as reported by Expr.Explain); ok is false when
// nothing has been recorded or the key's entry has been evicted.
func (db *DB) ObservedCost(key string) (ObservedCost, bool) {
	return db.rt.Costs().Snapshot(key)
}

// Options returns the handle's sampling options.
func (db *DB) Options() Options { return db.opts }

// nextSeed returns the next per-call sampling seed: deterministic in
// the call sequence on a handle, distinct across calls.
func (db *DB) nextSeed() uint64 {
	return db.seedBase + db.seq.Add(1)*0x9E3779B97F4A7C15
}

func (db *DB) check(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// named returns the expression for a relation or query name under the
// call's options. Its canonical plan comes from the runtime's memoized
// name resolver, so a named call is exactly db.Rel(name) without the
// per-call compile.
func (db *DB) named(name string, copts []CallOption) *Expr {
	opts := db.callOpts(copts)
	e := &Expr{db: db, node: query.NewRel(name), opts: &opts}
	e.compileOnce.Do(func() { e.cp, e.cerr = db.entry.Plan(name) })
	return e
}

// Sampler returns the prepared (warm) sampler for a relation or query
// name: rounding, well-boundedness witnesses and per-tuple volume
// estimates are computed once and cached in the handle's LRU; bind
// request seeds with NewObservable/NewObservableCtx for independent
// generators. Concurrent calls for the same cold target coalesce into
// a single preparation. Per-call overrides (CallWalk, CallParams,
// CallOptions) key into the cache, so each distinct configuration warms
// its own entry.
func (db *DB) Sampler(ctx context.Context, name string, copts ...CallOption) (*PreparedSampler, error) {
	return db.named(name, copts).Sampler(ctx)
}

// SampleN draws n almost-uniform points from the named relation or
// query on the handle's bounded worker pool, preparing (or reusing) the
// warm sampler. Each call uses a fresh seed from the handle's
// deterministic sequence; use SampleNSeeded to pin one.
func (db *DB) SampleN(ctx context.Context, name string, n int, copts ...CallOption) ([]Vector, error) {
	return db.SampleNSeeded(ctx, name, n, db.nextSeed(), copts...)
}

// SampleNSeeded is SampleN with an explicit base seed: the output is
// deterministic in (program, target, options, n, workers, seed), and
// byte-identical concurrent draws are coalesced into a single
// execution. It returns exactly what db.Rel(name).SampleNSeeded
// returns; ∃ queries past the elimination budget (no cacheable sampler)
// run sequentially on a per-call engine instead of the pool.
func (db *DB) SampleNSeeded(ctx context.Context, name string, n int, seed uint64, copts ...CallOption) ([]Vector, error) {
	return db.named(name, copts).SampleNSeeded(ctx, n, seed)
}

// Samples streams almost-uniform points from the named relation or
// query as a Go 1.23+ iterator: it yields (point, nil) until the
// context is cancelled, the generator aborts (probability δ, see
// ErrGeneratorFailed) or the consumer breaks. After a non-nil error the
// sequence stops. The stream binds one generator, so points arrive in
// one walker's deterministic order; independent streams come from
// separate Samples calls.
//
//	for p, err := range db.Samples(ctx, "S") {
//	    if err != nil { ... }
//	    consume(p)
//	    if enough { break }
//	}
func (db *DB) Samples(ctx context.Context, name string, copts ...CallOption) iter.Seq2[Vector, error] {
	return db.named(name, copts).Samples(ctx)
}

// Volume returns the (ε, δ)-relative volume estimate of the named
// relation or query — exactly db.Rel(name).Volume. Single-tuple
// relations surface the preparation-time estimate directly (no walker
// is bound); unions run the Karp–Luby acceptance pass, and ∃ queries
// past the elimination budget a per-call engine, under a seed derived
// from the cache key, so the result is deterministic per
// (program, target, options). A provably empty (or measure-zero)
// target returns 0; replays serve the cached verdict in O(1).
func (db *DB) Volume(ctx context.Context, name string, copts ...CallOption) (float64, error) {
	return db.named(name, copts).Volume(ctx)
}

// Query returns a generator/estimator for a named query via its
// sampling plan (Theorem 4.4's existential fragment: unions,
// intersections, differences and projections of the schema relations).
// It is the stream db.Rel(name).Samples draws from, bound to a fresh
// seed of the handle's sequence, and its hot loops honour ctx.
func (db *DB) Query(ctx context.Context, name string) (Observable, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	if _, ok := db.entry.DB.Query(name); !ok {
		return nil, fmt.Errorf("cdb: query %q not found", name)
	}
	x, err := db.named(name, nil).exec(ctx)
	if err != nil {
		return nil, err
	}
	return x.Stream(ctx, db.nextSeed())
}

// QueryVolume estimates the volume of a named query's result through
// its sampling plan — exactly db.Rel(name).Volume.
func (db *DB) QueryVolume(ctx context.Context, name string) (float64, error) {
	if err := db.check(ctx); err != nil {
		return 0, err
	}
	if _, ok := db.entry.DB.Query(name); !ok {
		return 0, fmt.Errorf("cdb: query %q not found", name)
	}
	return db.named(name, nil).Volume(ctx)
}

// TimeSlice returns the warm sampler for the t = t0 snapshot of a
// space-time relation (time column = the column named "t", or the last
// one). Slices are cached per (relation, t0, options); empty slices —
// t0 outside the relation's support — are cached as negative entries,
// so repeated out-of-support probes are O(1) and return an error
// wrapping ErrEmptySlice.
func (db *DB) TimeSlice(ctx context.Context, relName string, t0 float64) (*PreparedSampler, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	ps, _, _, err := db.rt.PreparedSlice(db.entry, relName, t0, db.opts)
	return ps, err
}

// TimeWindow returns the warm sampler for the t ∈ [t0, t1] restriction
// of a space-time relation, cached like TimeSlice.
func (db *DB) TimeWindow(ctx context.Context, relName string, t0, t1 float64) (*PreparedSampler, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	ps, _, _, err := db.rt.PreparedWindow(db.entry, relName, t0, t1, db.opts)
	return ps, err
}

// Alibi answers "could the objects of relations a and b have met
// during [t0, t1]?" both by sampling (meeting-volume estimate over the
// meet region) and symbolically (exact Fourier–Motzkin meeting-time
// intervals), cross-checked in the returned report. The meet region,
// the intervals and the volume observable are prepared once and cached
// per (a, b, t0, t1, options); replays only bind seeds.
func (db *DB) Alibi(ctx context.Context, a, b string, t0, t1 float64) (*AlibiReport, error) {
	return db.AlibiSeeded(ctx, a, b, t0, t1, db.nextSeed(), 1)
}

// AlibiSeeded is Alibi with an explicit seed and median-of-k
// amplification of the meeting-volume confidence (k <= 1 runs a single
// estimate).
func (db *DB) AlibiSeeded(ctx context.Context, a, b string, t0, t1 float64, seed uint64, k int) (*AlibiReport, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	if t1 < t0 {
		return nil, fmt.Errorf("cdb: empty alibi window [%g, %g]", t0, t1)
	}
	pa, _, err := db.rt.PreparedAlibi(db.entry, a, b, t0, t1, db.opts)
	if err != nil {
		return nil, err
	}
	return pa.Report(ctx, seed, k)
}

// TimeSupportOf returns the time extent [lo, hi] of a space-time
// relation of the program; ok is false for unknown, empty or
// time-unbounded relations.
func (db *DB) TimeSupportOf(relName string) (lo, hi float64, ok bool) {
	rel, found := db.entry.DB.Relation(relName)
	if !found {
		return 0, 0, false
	}
	return spacetime.Support(rel, spacetime.TimeColumn(rel))
}

// ErrEmptySlice marks a time slice or window with no feasible tuple —
// the probe time lies outside the relation's support. Returned (wrapped)
// by TimeSlice and TimeWindow.
var ErrEmptySlice = runtime.ErrEmptySlice
