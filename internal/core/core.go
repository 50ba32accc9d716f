// Package core implements the paper's primary contribution: almost
// uniform generators and relative volume estimators ((γ, ε, δ)-generators
// and (ε, δ)-volume estimators, Definition 2.2) for generalized relations,
// closed under the logical operators.
//
// The base generator is the Dyer–Frieze–Kannan random walk for
// well-bounded convex bodies given by membership oracles (Convex). On top
// of it the package provides the paper's combinators:
//
//   - Union (Theorem 4.1, Algorithm 1; Corollary 4.2 for m-way unions)
//   - Intersection (Proposition 4.1, Corollary 4.3) with the
//     poly-relatedness guard
//   - Difference (Proposition 4.2) with the same guard
//   - Projection (Theorem 4.3, Algorithm 2) with cylinder-volume
//     rejection
//   - Fixed-dimension exact evaluation (Section 3: Lemmas 3.1 and 3.2)
//
// A relation that has both a generator and a volume estimator is
// *observable*; the Observable interface captures exactly that.
package core

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/walk"
)

// ErrGeneratorFailed reports that a generator exhausted its retry budget;
// Definition 2.2 allows failure with probability δ, and callers see that
// failure as this error.
var ErrGeneratorFailed = errors.New("core: generator failed (probability-δ abort)")

// ErrNotPolyRelated reports that an intersection or difference violates
// the poly-relatedness condition of Propositions 4.1/4.2: the acceptance
// rate fell below the configured floor, so the operand is exponentially
// smaller than its source and no efficient generator exists (unless
// P = NP, per the paper's SAT encoding).
var ErrNotPolyRelated = errors.New("core: operands are not poly-related (acceptance below floor)")

// ErrNotWellBounded reports a missing inner or outer ball witness.
var ErrNotWellBounded = errors.New("core: relation is not well-bounded")

// Generator produces almost-uniform samples from a relation discretized
// on a γ-grid, per Definition 2.2.
type Generator interface {
	// Dim returns the ambient dimension of the generated points.
	Dim() int
	// Sample returns an almost-uniform point of the relation. It fails
	// with ErrGeneratorFailed with probability at most δ.
	Sample() (linalg.Vector, error)
	// Grid returns the γ-grid the generator discretizes on.
	Grid() geom.Grid
}

// VolumeEstimator produces (ε, δ)-relative estimates of the volume.
type VolumeEstimator interface {
	// Volume returns an estimate that approximates the true volume with
	// ratio 1+ε with probability at least 1-δ.
	Volume() (float64, error)
}

// Observable is the paper's notion of an observable relation: it has
// both an almost-uniform generator and a relative volume estimator, and
// (like every finitely representable relation) a linear-time membership
// test.
type Observable interface {
	Generator
	VolumeEstimator
	Contains(x linalg.Vector) bool
}

// Params carries the approximation parameters of Definition 2.2.
type Params struct {
	// Gamma controls the grid resolution: |V|·p^d approximates the
	// volume with ratio 1+γ.
	Gamma float64
	// Eps controls the distribution quality (ratio 1+ε to uniform) and
	// the volume estimation ratio.
	Eps float64
	// Delta bounds the failure probability.
	Delta float64
}

// DefaultParams returns the moderate parameters used by the examples and
// experiments: γ = 0.2, ε = 0.25, δ = 0.1.
func DefaultParams() Params { return Params{Gamma: 0.2, Eps: 0.25, Delta: 0.1} }

func (p Params) validate() error {
	if p.Gamma <= 0 || p.Gamma >= 1 || p.Eps <= 0 || p.Eps >= 1 || p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("core: parameters must lie in (0,1): γ=%g ε=%g δ=%g", p.Gamma, p.Eps, p.Delta)
	}
	return nil
}

// Options tunes the machinery shared by all generators. The zero value
// selects faithful-but-practical defaults; the theoretical step budgets
// (O(d¹⁹)) are replaced by engineering schedules validated empirically by
// experiment E2 (O(d¹⁹) is ~10⁹ steps per sample already at d = 3; E2
// measures how close to uniform the shorter schedules stay).
type Options struct {
	Params Params
	// Walk selects the Markov chain; the default is the paper's GridWalk.
	// HitAndRun is offered for experiments needing many samples.
	Walk walk.Kind
	// WalkSteps overrides the per-sample mixing budget (0 = default).
	WalkSteps int
	// RoundingIterations of covariance rounding (0 = default 3; negative
	// disables the isotropy pass, leaving only Chebyshev recentring —
	// used by the rounding ablation A3).
	RoundingIterations int
	// MaxPhaseSamples caps per-phase sampling in the telescoping volume
	// estimator (0 = default 1500).
	MaxPhaseSamples int
	// MaxRounds caps rejection rounds in the union/intersection/
	// difference/projection generators (0 = derived from δ).
	MaxRounds int
	// AcceptanceFloor is the poly-relatedness guard: if the measured
	// acceptance of an intersection/difference falls below it, the
	// generator aborts with ErrNotPolyRelated (0 = default 1e-4).
	AcceptanceFloor float64
	// Interrupt, when non-nil, is polled inside every sampling hot loop
	// — walk mixing epochs, union/intersection/difference/projection
	// acceptance rounds and volume passes. A non-nil return aborts the
	// operation with that error (typically ctx.Err()), making every
	// generator cancellable mid-walk. Interrupt is a per-call concern:
	// it is deliberately excluded from CacheKey, and prepared-sampler
	// caches strip it before preparation so a request's context is never
	// baked into shared geometry.
	Interrupt func() error
}

// interrupted polls the Interrupt hook.
func (o Options) interrupted() error {
	if o.Interrupt == nil {
		return nil
	}
	return o.Interrupt()
}

func (o Options) params() Params {
	p := o.Params
	if p.Gamma == 0 && p.Eps == 0 && p.Delta == 0 {
		return DefaultParams()
	}
	return p
}

func (o Options) maxPhaseSamples() int {
	if o.MaxPhaseSamples <= 0 {
		return 1500
	}
	return o.MaxPhaseSamples
}

func (o Options) acceptanceFloor() float64 {
	if o.AcceptanceFloor <= 0 {
		return 1e-4
	}
	return o.AcceptanceFloor
}

func (o Options) roundingIterations() int {
	if o.RoundingIterations < 0 {
		return 0
	}
	if o.RoundingIterations == 0 {
		return 3
	}
	return o.RoundingIterations
}

// maxRounds derives the retry budget from δ and a per-round success
// lower bound (Theorem 4.1 uses k = 4·ln(1/δ) for per-round success
// ≥ 1/4).
func (o Options) maxRounds(perRound float64) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	p := o.params()
	if perRound <= 0 || perRound > 1 {
		perRound = 0.25
	}
	k := int(4/perRound) * logCeil(1/p.Delta)
	if k < 16 {
		k = 16
	}
	if k > 1<<20 {
		k = 1 << 20
	}
	return k
}

func logCeil(x float64) int {
	n := 1
	v := 2.718281828459045
	for v < x && n < 64 {
		v *= 2.718281828459045
		n++
	}
	return n
}

// CacheKey returns a canonical fingerprint of every Options field that
// affects the prepared sampling machinery (walk kind, approximation
// parameters, step and rounding budgets). Two Options values with equal
// CacheKeys build interchangeable PreparedRelations, so serving layers
// key their prepared-sampler caches on it.
func (o Options) CacheKey() string {
	p := o.params()
	return fmt.Sprintf("walk=%s;gamma=%g;eps=%g;delta=%g;steps=%d;rounditer=%d;phase=%d;rounds=%d;floor=%g",
		o.Walk, p.Gamma, p.Eps, p.Delta,
		o.WalkSteps, o.roundingIterations(), o.maxPhaseSamples(), o.MaxRounds, o.acceptanceFloor())
}

// NewRNG returns the deterministic generator used across the package
// (re-exported so callers need not import internal/rng).
func NewRNG(seed uint64) *rng.RNG { return rng.New(seed) }
