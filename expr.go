package cdb

// The lazy relational-algebra query surface: db.Rel("parcels") returns
// an *Expr; combinators (Where, Intersect, Union, Minus, Project,
// TimeSliceAt) build a plan without touching any geometry; terminal
// verbs (SampleN, Samples, Volume, Reconstruct, Explain) compile the
// expression once into a canonical plan — commutative operands sorted,
// projections collapsed, selections pushed into tuples, LP-infeasible
// disjuncts pruned — and execute it through the handle's shared
// runtime. The canonical plan's hash is the cache key, so structurally
// equal expressions, however they were built, share one prepared
// sampler; provably empty expressions cache as O(1) negative verdicts.
//
//	warm := db.Rel("parcels").Intersect(db.Rel("floodzone")).
//	    Where(cdb.NewAtom(cdb.Vector{1, 0}, 10, false)) // x <= 10
//	pts, err := warm.SampleN(ctx, 1000)
//	v, err := warm.Volume(ctx) // 0 for provably empty expressions

import (
	"context"
	"errors"
	"iter"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/runtime"
)

// ErrEmptyExpr marks an expression whose canonical plan has no
// LP-feasible disjunct: it provably denotes the empty set. SampleN and
// Samples return it (wrapped); Volume translates it to 0. The verdict
// is cached as a negative entry, so replays are O(1) and never evict
// warm geometry.
var ErrEmptyExpr = runtime.ErrEmptyExpr

// NewAtom returns the linear constraint coef·x <= b (or < b when
// strict) over an expression's output columns, in order — the building
// block of Expr.Where.
func NewAtom(coef Vector, b float64, strict bool) Atom {
	return Atom{Coef: coef, B: b, Strict: strict}
}

// Expr is a lazy relational-algebra expression over a DB handle.
// Expressions are immutable — every combinator returns a new Expr
// sharing subtrees — and safe for concurrent use; the compiled
// canonical plan is memoized per Expr value, so repeated terminal calls
// on one expression pay the normalization pass once.
type Expr struct {
	db   *DB
	node *query.Node
	opts *Options // nil: inherit the handle's options
	err  error    // construction error (cross-handle operands), surfaced at terminals

	compileOnce  sync.Once
	cp           *query.CanonicalPlan
	cerr         error
	compileNanos int64 // wall time of the memoized compile pass

	symOnce sync.Once
	sq      *query.SymbolicQuery
	serr    error
}

// Rel returns the algebra leaf for a declared relation or a named query
// of the program. Resolution is lazy: an unknown name errors at the
// first terminal verb.
func (db *DB) Rel(name string) *Expr {
	return &Expr{db: db, node: query.NewRel(name)}
}

// derive returns a fresh Expr on the same handle, carrying the
// receiver's option overrides and any construction error.
func (e *Expr) derive(node *query.Node, err error) *Expr {
	ne := &Expr{db: e.db, node: node, opts: e.opts, err: e.err}
	if ne.err == nil {
		ne.err = err
	}
	return ne
}

// checkOperand validates a binary combinator's right operand.
func (e *Expr) checkOperand(o *Expr) error {
	if o == nil {
		return errors.New("cdb: nil Expr operand")
	}
	if o.db != e.db {
		return errors.New("cdb: Expr operands belong to different DB handles")
	}
	return o.err
}

// Where returns the selection of the expression: each atom is a linear
// constraint over the expression's output columns, in order (see
// NewAtom). Selections are pushed into every disjunct's tuple during
// canonicalization.
func (e *Expr) Where(atoms ...Atom) *Expr {
	return e.derive(e.node.Where(atoms...), nil)
}

// Intersect returns the intersection with o. Columns are identified
// positionally; both operands must come from the same DB handle.
func (e *Expr) Intersect(o *Expr) *Expr {
	if err := e.checkOperand(o); err != nil {
		return e.derive(e.node, err)
	}
	return e.derive(e.node.Intersect(o.node), nil)
}

// Union returns the union with o (same arity, positional columns).
func (e *Expr) Union(o *Expr) *Expr {
	if err := e.checkOperand(o); err != nil {
		return e.derive(e.node, err)
	}
	return e.derive(e.node.Union(o.node), nil)
}

// Minus returns the difference e \ o. The right operand must be
// quantifier-free (negation under ∃ leaves the sampling fragment).
func (e *Expr) Minus(o *Expr) *Expr {
	if err := e.checkOperand(o); err != nil {
		return e.derive(e.node, err)
	}
	return e.derive(e.node.Minus(o.node), nil)
}

// Project keeps the named columns in the given order, existentially
// projecting the rest away (Algorithm 2's projection generator when the
// dropped columns are constrained).
func (e *Expr) Project(vars ...string) *Expr {
	return e.derive(e.node.Project(vars...), nil)
}

// Div returns the relational division e ÷ o: the prefixes x over e's
// leading columns such that (x, y) ∈ e for EVERY y ∈ o — the
// universally quantified formula ∀y (o(y) → e(x, y)), with o's columns
// identified positionally with e's trailing columns. Division is
// outside the existential sampling fragment (Theorem 4.4), so the
// sampling terminals reject it; evaluate with EvalSymbolic or
// VolumeSymbolic.
func (e *Expr) Div(o *Expr) *Expr {
	if err := e.checkOperand(o); err != nil {
		return e.derive(e.node, err)
	}
	return e.derive(e.node.Div(o.node), nil)
}

// TimeSliceAt returns the t = t0 snapshot of a space-time expression:
// the time column (the column named "t", or the last one) is
// substituted by t0 and dropped from the output.
func (e *Expr) TimeSliceAt(t0 float64) *Expr {
	return e.derive(e.node.TimeSlice(t0), nil)
}

// WithOptions returns the expression with its sampling options replaced
// wholesale for every terminal verb — the per-expression form of the
// handle-wide Open options. The options key into the prepared cache.
func (e *Expr) WithOptions(opts Options) *Expr {
	ne := e.derive(e.node, nil)
	ne.opts = &opts
	return ne
}

// WithWalk returns the expression with the Markov chain overridden.
func (e *Expr) WithWalk(k WalkKind) *Expr {
	opts := e.effectiveOptions()
	opts.Walk = k
	return e.WithOptions(opts)
}

// WithParams returns the expression with the approximation parameters
// (γ, ε, δ) overridden.
func (e *Expr) WithParams(p Params) *Expr {
	opts := e.effectiveOptions()
	opts.Params = p
	return e.WithOptions(opts)
}

// effectiveOptions resolves the expression's sampling options: its own
// override, or the handle's.
func (e *Expr) effectiveOptions() Options {
	if e.opts != nil {
		return *e.opts
	}
	return e.db.opts
}

// compile lowers the expression to its canonical plan, once per Expr.
func (e *Expr) compile() (*query.CanonicalPlan, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.compileOnce.Do(func() {
		start := time.Now()
		defer func() { e.compileNanos = time.Since(start).Nanoseconds() }()
		plan, err := e.node.Compile(e.db.entry.DB)
		if err != nil {
			e.cerr = err
			return
		}
		e.cp = query.Canonicalize(plan)
	})
	return e.cp, e.cerr
}

// compileSymbolic lowers the expression for symbolic evaluation, once
// per Expr. Unlike compile it accepts the full first-order algebra
// (Minus of a projection, Div). In-fragment expressions reuse the
// memoized canonical plan instead of planning twice.
func (e *Expr) compileSymbolic() (*query.SymbolicQuery, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.symOnce.Do(func() {
		cp, err := e.compile()
		switch {
		case err == nil:
			e.sq = query.SymbolicFromPlan(cp)
		case errors.Is(err, ErrUnsupportedQuery):
			// Full first-order: no sampling plan exists; compile the
			// formula form.
			e.sq, e.serr = e.node.CompileSymbolic(e.db.entry.DB)
		default:
			e.serr = err
		}
	})
	return e.sq, e.serr
}

// Columns returns the expression's output column names, from the
// memoized compile (symbolic, so full-FO expressions resolve too).
func (e *Expr) Columns() ([]string, error) {
	sq, err := e.compileSymbolic()
	if err != nil {
		return nil, err
	}
	return append([]string(nil), sq.OutVars...), nil
}

// CanonicalKey returns the canonical fingerprint of the expression's
// normalized plan: equal for structurally equal expressions regardless
// of construction order, and the basis of the prepared-sampler cache
// key.
func (e *Expr) CanonicalKey() (string, error) {
	cp, err := e.compile()
	if err != nil {
		return "", err
	}
	return cp.Key, nil
}

// exec compiles the expression and resolves its canonical plan against
// the prepared cache through the runtime's plan executor, which decides
// how every terminal below runs. Under a traced context the compile +
// prepare stage appears as an "expr.prepare" span carrying the cache
// key and whether the sampler was warm.
func (e *Expr) exec(ctx context.Context) (*runtime.Exec, error) {
	if err := e.db.check(ctx); err != nil {
		return nil, err
	}
	_, span := obs.Start(ctx, "expr.prepare")
	defer span.End()
	cp, err := e.compile()
	if err != nil {
		return nil, err
	}
	span.Set("compile_nanos", e.compileNanos)
	x, err := e.db.rt.Exec(e.db.entry, cp, e.effectiveOptions(), e.db.prepSeed)
	if err != nil {
		return nil, err
	}
	span.SetKey(x.Key)
	if x.Hit {
		span.Set("cache_hit", 1)
	}
	return x, nil
}

// Sampler returns the prepared (warm) sampler for the expression —
// rounding, well-boundedness witnesses and per-tuple volume estimates
// computed once and cached under the canonical plan key. Expressions
// needing the projection generator return ErrNeedsProjection (SampleN,
// Samples and Volume run them on a per-call engine); provably empty
// expressions return ErrEmptyExpr.
func (e *Expr) Sampler(ctx context.Context) (*PreparedSampler, error) {
	x, err := e.exec(ctx)
	if err != nil {
		return nil, err
	}
	return x.Sampler()
}

// SampleN draws n almost-uniform points of the expression on the
// handle's bounded worker pool, preparing (or reusing) the warm
// sampler. Each call uses a fresh seed from the handle's deterministic
// sequence; use SampleNSeeded to pin one.
func (e *Expr) SampleN(ctx context.Context, n int) ([]Vector, error) {
	return e.SampleNSeeded(ctx, n, e.db.nextSeed())
}

// SampleNSeeded is SampleN with an explicit base seed: deterministic in
// (program, expression, options, n, workers, seed); byte-identical
// concurrent draws coalesce. Projection-needing expressions run
// sequentially on a per-call engine.
func (e *Expr) SampleNSeeded(ctx context.Context, n int, seed uint64) ([]Vector, error) {
	ctx, span := obs.Start(ctx, "expr.sample")
	defer span.End()
	x, err := e.exec(ctx)
	if err != nil {
		return nil, err
	}
	span.SetKey(x.Key)
	pts, _, err := x.SampleN(ctx, n, e.db.workers, seed)
	return pts, err
}

// Samples streams almost-uniform points of the expression as a Go
// 1.23+ iterator, like DB.Samples: it yields (point, nil) until the
// context is cancelled, the generator aborts or the consumer breaks.
func (e *Expr) Samples(ctx context.Context) iter.Seq2[Vector, error] {
	seed := e.db.nextSeed()
	return func(yield func(Vector, error) bool) {
		x, err := e.exec(ctx)
		var gen Observable
		if err == nil {
			gen, err = x.Stream(ctx, seed)
		}
		if err != nil {
			yield(nil, err)
			return
		}
		for {
			if err := ctx.Err(); err != nil {
				yield(nil, err)
				return
			}
			p, err := gen.Sample()
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(p, nil) {
				return
			}
		}
	}
}

// Volume returns the (ε, δ)-relative volume estimate of the expression
// from the warm geometry, deterministic per (program, expression,
// options). A provably empty expression returns 0 — on replay an O(1)
// cached verdict, no geometry touched. Projection-needing expressions
// run on a per-call engine under a key-derived seed.
func (e *Expr) Volume(ctx context.Context) (float64, error) {
	ctx, span := obs.Start(ctx, "expr.volume")
	defer span.End()
	x, err := e.exec(ctx)
	if err != nil {
		return 0, err
	}
	span.SetKey(x.Key)
	return x.Volume(ctx, nil)
}

// EvalSymbolic evaluates the expression symbolically — the paper's
// §4.3 classical baseline — and returns the quantifier-free DNF
// relation it denotes, as a derived *Relation whose Source() is
// parseable. Unlike the sampling terminals it accepts the FULL
// first-order algebra: Minus of a projection (¬∃, expanded per-disjunct
// complements) and Div (∀, compiled as ¬∃¬), eliminated by
// Fourier–Motzkin with LP redundancy pruning after each step.
//
// The eliminated relation is cached in the handle's runtime keyed by
// the canonical plan hash (the same key the prepared-sampler cache
// uses, so structurally equal expressions share the entry); provably
// empty results cache as O(1) negative verdicts and return a relation
// with no tuples. The cost of a cold call is the classical
// doubly-exponential blow-up (experiment E9) — prefer the sampling
// terminals when an estimate suffices.
func (e *Expr) EvalSymbolic(ctx context.Context) (*Relation, error) {
	if err := e.db.check(ctx); err != nil {
		return nil, err
	}
	sq, err := e.compileSymbolic()
	if err != nil {
		return nil, err
	}
	se, _, _, err := e.db.rt.Symbolic(ctx, e.db.entry, sq)
	if errors.Is(err, ErrEmptyExpr) {
		return &Relation{Name: "derived", Vars: append([]string(nil), sq.OutVars...)}, nil
	}
	if err != nil {
		return nil, err
	}
	// The cached relation is shared across callers; hand out fresh
	// slice headers so renaming columns (or appending tuples) cannot
	// corrupt the cache entry. The tuples themselves stay shared and
	// are immutable by convention.
	return &Relation{
		Name:   se.Rel.Name,
		Vars:   append([]string(nil), se.Rel.Vars...),
		Tuples: append([]Tuple(nil), se.Rel.Tuples...),
	}, nil
}

// VolumeSymbolic returns the EXACT volume of the expression via its
// eliminated DNF: signed inclusion–exclusion over the tuples, each
// intersection measured by Lasserre's recursive formula. Exponential in
// tuple count and dimension (the Lemma 3.1 regime — exact evaluation is
// polynomial only for fixed dimension); relations beyond 20 tuples are
// rejected. Provably empty expressions return 0. Both the eliminated
// relation and the volume live in the symbolic cache entry, so replays
// pay neither elimination nor the inclusion–exclusion pass.
func (e *Expr) VolumeSymbolic(ctx context.Context) (float64, error) {
	if err := e.db.check(ctx); err != nil {
		return 0, err
	}
	sq, err := e.compileSymbolic()
	if err != nil {
		return 0, err
	}
	se, _, _, err := e.db.rt.Symbolic(ctx, e.db.entry, sq)
	if errors.Is(err, ErrEmptyExpr) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return se.ExactVolume(ctx)
}

// Reconstruct runs Algorithm 5 on the expression: per-disjunct hulls of
// n samples each, unioned into a SetEstimate, under a fresh seed of the
// handle's sequence. A provably empty expression returns ErrEmptyExpr.
func (e *Expr) Reconstruct(ctx context.Context, n int) (*SetEstimate, error) {
	x, err := e.exec(ctx)
	if err != nil {
		return nil, err
	}
	return x.Reconstruct(ctx, n, e.db.nextSeed())
}
