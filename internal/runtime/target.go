package runtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/query"
	"repro/internal/reconstruct"
)

// ErrNeedsProjection marks a query whose sampling plan requires the
// projection generator (Algorithm 2) and therefore cannot be served
// from the prepared-sampler cache.
var ErrNeedsProjection = errors.New("query needs the projection generator")

// ErrTargetNotFound marks a relation or query name absent from its
// database.
var ErrTargetNotFound = errors.New("target not found")

// ErrEmptyExpr marks a target whose canonical plan has no full-
// dimensional LP-feasible disjunct: the expression provably denotes an
// empty (or measure-zero) set. The verdict is cached as a negative
// entry, so replays are O(1) and — negatives park at the LRU's
// eviction end — never evict warm geometry. Exec.Volume translates it
// to volume 0; the sampling terminals surface it as an error.
var ErrEmptyExpr = errors.New("expression denotes an empty (or measure-zero) set")

// Plan is the name resolver: it returns the canonical plan a declared
// relation or named query denotes — the plan cdb.Expr compiles for
// db.Rel(name), query.NewRel(name) through Compile and Canonicalize —
// so a named request and the structurally equal expression share one
// cache key, whichever surface asked. Programs are immutable and plans
// ignore the sampling options, so each name is compiled once per
// registered program.
func (e *DatabaseEntry) Plan(name string) (*query.CanonicalPlan, error) {
	if cp, ok := e.plans.Load(name); ok {
		return cp.(*query.CanonicalPlan), nil
	}
	_, isRel := e.DB.Relation(name)
	_, isQuery := e.DB.Query(name)
	if !isRel && !isQuery {
		return nil, fmt.Errorf("%w: relation or query %q in database %q", ErrTargetNotFound, name, e.ID)
	}
	plan, err := query.NewRel(name).Compile(e.DB)
	if err != nil {
		return nil, err
	}
	cp, _ := e.plans.LoadOrStore(name, query.Canonicalize(plan))
	return cp.(*query.CanonicalPlan), nil
}

// Target resolves the (relation, query) pair of a name-addressed
// request through Plan: exactly one must be set, naming a declared
// relation or a named query respectively.
func (e *DatabaseEntry) Target(relName, queryName string) (*query.CanonicalPlan, error) {
	switch {
	case relName != "" && queryName != "":
		return nil, errors.New("specify relation or query, not both")
	case relName != "":
		if _, ok := e.DB.Relation(relName); !ok {
			return nil, fmt.Errorf("%w: relation %q in database %q", ErrTargetNotFound, relName, e.ID)
		}
		return e.Plan(relName)
	case queryName != "":
		if _, ok := e.DB.Query(queryName); !ok {
			return nil, fmt.Errorf("%w: query %q in database %q", ErrTargetNotFound, queryName, e.ID)
		}
		return e.Plan(queryName)
	default:
		return nil, errors.New("missing relation (or query) name")
	}
}

// PreparedFor returns the cached prepared sampler for a name-addressed
// target (see Target), building it on first use.
func (rt *Runtime) PreparedFor(e *DatabaseEntry, relName, queryName string, opts core.Options) (*Prepared, string, bool, error) {
	cp, err := e.Target(relName, queryName)
	if err != nil {
		return nil, "", false, err
	}
	return rt.PreparedPlan(e, cp, opts)
}

// PlanKey is the prepared cache key of a canonical plan under a
// database and options fingerprint.
func PlanKey(dbID, canonKey, optsKey string) string {
	return SamplerKey(dbID, "plan", canonKey, optsKey)
}

// PreparedPlan returns the cached prepared sampler for a canonical
// plan. The key is the plan's canonical hash, so structurally equal
// expressions and name-addressed targets with the same geometry share
// the entry. Provably empty plans cache as Negative(ErrEmptyExpr);
// plans needing the projection generator cache as
// Negative(ErrNeedsProjection) — both O(1) on replay.
func (rt *Runtime) PreparedPlan(e *DatabaseEntry, cp *query.CanonicalPlan, opts core.Options) (*Prepared, string, bool, error) {
	return rt.preparedPlan(e, cp, opts, nil)
}

func (rt *Runtime) preparedPlan(e *DatabaseEntry, cp *query.CanonicalPlan, opts core.Options, prepSeed *uint64) (*Prepared, string, bool, error) {
	key := PlanKey(e.ID, cp.Key, opts.CacheKey())
	ps, hit, err := rt.cache.Get(key, func() (*Prepared, error) {
		return rt.buildFromPlan(cp, key, prepSeed, opts)
	})
	return ps, key, hit, err
}

// buildFromPlan is the cold-build closure body: empty and
// projection-needing plans become cached verdicts, everything else
// materialises as a derived relation and pays the preparation pass.
// The cached verdicts carry no target name — the entry is shared by
// every structurally equal target, whatever it was called. The
// preparation time (rounding + volume passes) lands in the cost table
// under the prepared key.
func (rt *Runtime) buildFromPlan(cp *query.CanonicalPlan, key string, prepSeed *uint64, opts core.Options) (*Prepared, error) {
	if cp.Empty() {
		return nil, Negative(ErrEmptyExpr)
	}
	if cp.NeedsProjection() {
		return nil, Negative(ErrNeedsProjection)
	}
	rel, err := cp.Relation("derived")
	if err != nil {
		return nil, err
	}
	seed := PrepSeedFor(key)
	if prepSeed != nil {
		seed = *prepSeed
	}
	start := time.Now()
	ps, err := Prepare(rel, seed, opts, rt.fan)
	if err == nil {
		c := rt.costs.For(key)
		c.Preps.Add(1)
		c.PrepNanos.Add(time.Since(start).Nanoseconds())
		// Every successfully prepared plan is a candidate for the
		// background self-audit: the derived relation is already
		// quantifier-free DNF, i.e. inside the symbolic-capable
		// fragment (the auditor itself filters by description size).
		rt.auditor.register(key, rel, ps)
	}
	return ps, err
}

// Exec is the plan executor: one canonical plan of a registered
// program resolved against the prepared cache under sampling options.
// It is the one place that decides how a plan runs — from a warm
// prepared sampler, as the cached empty verdict (volume 0, no points),
// or, for plans needing Algorithm 2's projection generator, on a
// per-call query engine — so every surface samples, streams, measures
// and reconstructs a plan the same way: the cdb facade (Expr terminals
// and the named DB methods, DB.Query and DB.QueryVolume included),
// ExecSQL, and the HTTP endpoints /v1/sample, /v1/volume, /v1/query,
// /v1/reconstruct, /v1/expr and /v1/sql.
type Exec struct {
	// Key is the prepared cache key the plan resolved under; Hit
	// reports a warm, in-flight or negative cache entry.
	Key string
	Hit bool
	// Plan is the executed canonical plan.
	Plan *query.CanonicalPlan

	rt       *Runtime
	entry    *DatabaseEntry
	opts     core.Options
	prepSeed *uint64
	ps       *Prepared
	verdict  error // nil, or the cached ErrEmptyExpr / ErrNeedsProjection entry
}

// Exec resolves cp against the prepared cache, building its sampler —
// or caching its empty or projection verdict — on first use. The
// preparation seed derives from the cache key unless prepSeed pins it
// (cdb.WithPrepSeed); the key does not depend on it, so a caller must
// use one seed per key. A failed preparation is returned as the error
// and is not cached.
func (rt *Runtime) Exec(e *DatabaseEntry, cp *query.CanonicalPlan, opts core.Options, prepSeed *uint64) (*Exec, error) {
	ps, key, hit, err := rt.preparedPlan(e, cp, opts, prepSeed)
	if err != nil && !errors.Is(err, ErrEmptyExpr) && !errors.Is(err, ErrNeedsProjection) {
		return nil, err
	}
	return &Exec{Key: key, Hit: hit, Plan: cp, rt: rt, entry: e, opts: opts, prepSeed: prepSeed, ps: ps, verdict: err}, nil
}

// Sampler returns the warm prepared sampler, or the cached verdict that
// the plan has none (ErrEmptyExpr, ErrNeedsProjection; IsNegative holds
// for both).
func (x *Exec) Sampler() (*Prepared, error) { return x.ps, x.verdict }

// SampleN draws n points under seed: from the warm sampler on the
// worker pool (deterministic in n, workers and seed; identical
// concurrent draws coalesce, reported by coalesced), or sequentially
// from a per-call projection engine bound to seed.
func (x *Exec) SampleN(ctx context.Context, n, workers int, seed uint64) (pts []linalg.Vector, coalesced bool, err error) {
	if x.verdict == nil {
		return x.rt.exec.SampleManyCtx(ctx, x.Key, x.ps, n, workers, seed)
	}
	gen, err := x.Stream(ctx, seed)
	if err != nil {
		return nil, false, err
	}
	pts = make([]linalg.Vector, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		p, err := gen.Sample()
		if err != nil {
			return nil, false, err
		}
		pts = append(pts, p)
	}
	return pts, false, nil
}

// Stream binds seed to one generator whose hot loops poll ctx: the warm
// sampler's, or a per-call projection engine's.
func (x *Exec) Stream(ctx context.Context, seed uint64) (core.Observable, error) {
	switch {
	case errors.Is(x.verdict, ErrNeedsProjection):
		return x.engine(ctx, seed).ObservableFromPlan(x.Plan.Plan)
	case x.verdict != nil:
		return nil, x.verdict
	}
	return x.ps.NewObservableCtx(ctx, seed)
}

// Volume estimates the plan's volume: 0 for the empty verdict, the warm
// estimate of a prepared sampler (its (ε, δ) ledger recorded under
// Key), or a per-call projection engine's estimate. seed nil derives
// the estimator seed from the key (folding in a pinned preparation
// seed), so the estimate is deterministic per (program, plan, options).
func (x *Exec) Volume(ctx context.Context, seed *uint64) (float64, error) {
	switch {
	case errors.Is(x.verdict, ErrEmptyExpr):
		return 0, nil
	case errors.Is(x.verdict, ErrNeedsProjection):
		s := PrepSeedFor(x.Key + "\x1fexprvol")
		if x.prepSeed != nil {
			s = *x.prepSeed + PrepSeedFor("exprvol\x1f"+x.Plan.Key)
		}
		if seed != nil {
			s = *seed
		}
		obs, err := x.Stream(ctx, s)
		if err != nil {
			return 0, err
		}
		return obs.Volume()
	}
	s := PrepSeedFor(x.Key + "\x1fvolume")
	if seed != nil {
		s = *seed
	}
	v, acc, accOK, err := x.ps.VolumeWithAccuracy(ctx, s)
	if err == nil && accOK {
		x.rt.RecordVolumeAccuracy(x.Key, acc)
	}
	return v, err
}

// Reconstruct runs Algorithm 5 with n samples per hull: one hull per
// tuple of the warm sampler (a single hull over a union would claim the
// gaps between its tuples), or per-disjunct hulls from a per-call
// projection engine bound to seed.
func (x *Exec) Reconstruct(ctx context.Context, n int, seed uint64) (*reconstruct.SetEstimate, error) {
	switch {
	case errors.Is(x.verdict, ErrNeedsProjection):
		return x.engine(ctx, seed).ReconstructFromPlan(x.Plan.Plan, n)
	case x.verdict != nil:
		return nil, x.verdict
	}
	est := &reconstruct.SetEstimate{}
	for i := 0; i < x.ps.Tuples(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen, err := x.ps.NewMemberObservable(i, seed)
		if err != nil {
			return nil, err
		}
		hull, err := reconstruct.HullFromGenerator(gen, n)
		if err != nil {
			return nil, err
		}
		est.Hulls = append(est.Hulls, hull)
	}
	return est, nil
}

// engine is the per-call Algorithm 2 engine over the program's schema,
// its generators polling ctx.
func (x *Exec) engine(ctx context.Context, seed uint64) *query.Engine {
	opts := x.opts
	if ctx.Done() != nil {
		opts.Interrupt = ctx.Err
	}
	return query.NewEngine(x.entry.DB.Schema, opts, seed)
}
