// Package cdb is the public API of the constraint-database uniform
// generation library — a reproduction of Gross-Amblard & de Rougemont,
// "Uniform generation in spatial constraint databases and applications"
// (PODS 2000 / JCSS 72(3), 2006).
//
// The library evaluates queries over linear constraint databases by
// random sampling instead of symbolic quantifier elimination. The
// single public entry point is the DB handle:
//
//	db, _ := cdb.Open(`rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };`)
//	defer db.Close()
//	pts, _ := db.SampleN(ctx, "S", 100) // almost uniform points of S
//	v, _ := db.Volume(ctx, "S")         // relative estimate of area(S)
//
// Open parses the program once and returns a handle owning the warm
// sampling runtime — a singleflight LRU of prepared samplers and a
// bounded worker pool — in the database/sql tradition: share one handle
// across goroutines; every method takes a context that cancels
// in-flight walks. Underneath:
//
//   - Each well-bounded relation gets an almost-uniform
//     (γ, ε, δ)-generator and an (ε, δ)-relative volume estimator (the
//     Dyer–Frieze–Kannan walk composed through union, intersection,
//     difference and projection — the paper's Theorems 4.1–4.3).
//   - DB.Rel returns a lazy algebra expression (Expr) over relations
//     and named queries, evaluated by sampling through the same plan
//     executor as the named methods, or symbolically (Fourier–Motzkin
//     baseline), including shape reconstruction as unions of convex
//     hulls (Algorithms 3–5).
//   - DB.TimeSlice / DB.Alibi serve the moving-object workload (see
//     motion.go).
package cdb

import (
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/query"
	"repro/internal/reconstruct"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/semialg"
	"repro/internal/walk"
)

// Vector is a point in R^d.
type Vector = linalg.Vector

// Relation is a generalized relation: a finite union of generalized
// tuples (conjunctions of linear constraints).
type Relation = constraint.Relation

// Tuple is a generalized tuple (a convex set).
type Tuple = constraint.Tuple

// Atom is an atomic linear constraint coef·x <= b (or < b).
type Atom = constraint.Atom

// Database is a parsed program: named relations and queries.
type Database = constraint.Database

// Query is a named, unevaluated FO+LIN formula.
type Query = constraint.Query

// Formula is a FO+LIN formula AST node.
type Formula = constraint.Formula

// Schema maps relation names to relations.
type Schema = constraint.Schema

// Generator produces almost-uniform samples (Definition 2.2).
type Generator = core.Generator

// Observable couples a generator with a relative volume estimator — the
// paper's central notion.
type Observable = core.Observable

// Options tunes the sampling machinery; see DefaultOptions and
// FaithfulOptions.
type Options = core.Options

// Params are the approximation parameters (γ, ε, δ).
type Params = core.Params

// SetEstimate is a reconstruction: a union of convex hulls (Definition
// 4.1 estimators built by Algorithms 3–5).
type SetEstimate = reconstruct.SetEstimate

// Hull is a convex hull with LP membership.
type Hull = geom.Hull

// Polytope is an H-polytope {x : Ax <= b}.
type Polytope = polytope.Polytope

// Errors surfaced by the samplers.
var (
	// ErrGeneratorFailed is the probability-δ abort of Definition 2.2.
	ErrGeneratorFailed = core.ErrGeneratorFailed
	// ErrNotPolyRelated signals a violated poly-relatedness condition
	// (Propositions 4.1/4.2).
	ErrNotPolyRelated = core.ErrNotPolyRelated
	// ErrNotWellBounded signals a missing inner/outer ball witness.
	ErrNotWellBounded = core.ErrNotWellBounded
	// ErrUnsupportedQuery signals a formula outside the existential
	// sampling fragment (Theorem 4.4's scope).
	ErrUnsupportedQuery = query.ErrUnsupported
)

// Parse parses a constraint database program. See internal/constraint
// for the grammar; briefly:
//
//	rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 } | { 2x + y < 4 };
//	query Q(x)  := exists y. S(x, y);
func Parse(src string) (*Database, error) { return constraint.Parse(src) }

// ParseRelation parses a single "Name(vars) := body" declaration against
// an optional schema.
func ParseRelation(src string, schema Schema) (*Relation, error) {
	return constraint.ParseRelation(src, schema)
}

// ParseFormula parses a bare formula.
func ParseFormula(src string) (Formula, error) { return constraint.ParseFormula(src) }

// DefaultOptions returns the practical configuration: hit-and-run walks
// (fast mixing), moderate parameters γ=0.2, ε=0.25, δ=0.1.
func DefaultOptions() Options {
	return Options{Params: core.DefaultParams(), Walk: walk.HitAndRun}
}

// FaithfulOptions returns the paper-faithful configuration: the lazy
// grid walk of the Dyer–Frieze–Kannan theorem. Slower, used by the
// uniformity experiments.
func FaithfulOptions() Options {
	return Options{Params: core.DefaultParams(), Walk: walk.GridWalk}
}

// PreparedSampler is a well-bounded relation's almost-uniform generator
// and volume estimator (a DFK generator per tuple under the union
// combinator), split in two: the expensive setup (per-tuple rounding,
// well-boundedness witnesses and volume estimation) is paid once by
// PrepareSampler, and NewObservable (or NewObservableCtx, for
// cancellable generators) then binds request seeds to the warm geometry
// for the cost of a walker initialisation. A PreparedSampler is safe
// for concurrent use — binds create independent generators — and is
// what DB.Sampler returns and every prepared-sampler cache stores.
type PreparedSampler = runtime.Prepared

// PrepareSampler runs the full sampler setup for a well-bounded relation
// under a fixed preparation seed. The prepared geometry (and therefore
// every volume estimate and every sample stream drawn from it) is
// deterministic in (rel, prepSeed, opts).
//
// Most callers want DB.Sampler instead, which caches preparations in
// the handle's LRU, coalesces concurrent builds and spreads each
// build's tuples and volume phases over idle CPUs; PrepareSampler
// prepares them one after another, with the same result.
func PrepareSampler(rel *Relation, prepSeed uint64, opts Options) (*PreparedSampler, error) {
	return runtime.Prepare(rel, prepSeed, opts, nil)
}

// ExactVolume computes the exact volume by fixed-dimension methods
// (Lemma 3.1); exponential in the dimension, exact ground truth for
// d <= 9 and up to 20 tuples.
func ExactVolume(rel *Relation) (float64, error) { return core.ExactVolume(rel) }

// NewSemialgSampler builds the paper's §5 extension: an Observable for a
// convex body given by polynomial constraints, e.g.
//
//	gen, err := cdb.NewSemialgSampler(`x^2 + y^2 <= 1`, []string{"x", "y"},
//	    cdb.Vector{0, 0}, 1, 1, 42, cdb.DefaultOptions())
//
// The body is used purely as a membership oracle — the identical DFK
// machinery as the linear case. center/innerR/outerR are the
// well-boundedness witnesses (an inscribed and an enclosing ball). The
// constraints must define a convex set; a randomized convexity probe
// rejects detectable violations (the paper's caveat that polynomial
// conjunctions need not be convex).
func NewSemialgSampler(src string, vars []string, center Vector, innerR, outerR float64, seed uint64, opts Options) (Observable, error) {
	body, err := semialg.ParseBody(src, vars)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	lo := make(Vector, len(center))
	hi := make(Vector, len(center))
	for i := range center {
		lo[i] = center[i] - outerR
		hi[i] = center[i] + outerR
	}
	if err := body.ConvexityProbe(lo, hi, 256, r.Split()); err != nil {
		return nil, err
	}
	return core.NewConvex(body, center, innerR, outerR, r, opts)
}

// ReconstructConvex draws n samples from a convex relation's generator
// and returns the convex hull — the Definition 4.1 estimator of
// Lemma 4.1.
func ReconstructConvex(gen Generator, n int) (*Hull, error) {
	return reconstruct.HullFromGenerator(gen, n)
}

// ProjectAndReconstruct is Algorithm 3: estimate the projection of a
// convex polytope onto the coordinates keep by sampling + hull, without
// symbolic elimination.
func ProjectAndReconstruct(p *Polytope, keep []int, n int, seed uint64, opts Options) (*Hull, error) {
	return reconstruct.ProjectionEstimate(p, keep, n, rng.New(seed), opts)
}

// Shape constructors re-exported for building relations in code.

// Cube returns [lo, hi]^d as a tuple.
func Cube(d int, lo, hi float64) Tuple { return constraint.Cube(d, lo, hi) }

// Box returns the axis-aligned box [lo_i, hi_i].
func Box(lo, hi Vector) Tuple { return constraint.Box(lo, hi) }

// Simplex returns {x_i >= 0, Σx_i <= s}.
func Simplex(d int, s float64) Tuple { return constraint.Simplex(d, s) }

// MustRelation builds a relation from tuples, panicking on arity errors.
func MustRelation(name string, vars []string, tuples ...Tuple) *Relation {
	return constraint.MustRelation(name, vars, tuples...)
}
