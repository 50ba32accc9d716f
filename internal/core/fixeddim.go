package core

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// This file implements Section 3 of the paper: when the dimension is
// assumed fixed, every generalized relation is observable by exact,
// deterministic means — exact volume computation (Lemma 3.1) and uniform
// sampling by grid-cell enumeration (Lemma 3.2). Both are exponential in
// the dimension, which is why they carry explicit budgets; the
// experiments (E11) measure the crossover against the randomized
// machinery of Section 4.

// ExactVolume computes the exact volume of a generalized relation by
// signed inclusion–exclusion over its tuples with Lasserre's recursion
// per intersection — the package's realisation of Lemma 3.1 (the paper
// uses the Bieri–Nef sweep-plane; both are exact and polynomial only for
// fixed dimension, so either realises the lemma).
func ExactVolume(rel *constraint.Relation) (float64, error) {
	return polytope.RelationVolume(rel)
}

// GridEnum is Lemma 3.2's sampler: decompose the bounding box of the
// relation into γ-cells, enumerate the cells belonging to the relation,
// and choose among them uniformly. The distribution over cells is
// *exactly* uniform (ε = 0); the cost is the (R/γ)^d enumeration, which
// is polynomial only for fixed d.
type GridEnum struct {
	rel    *constraint.Relation
	grid   geom.Grid
	points []linalg.Vector
	r      *rng.RNG
}

var _ Observable = (*GridEnum)(nil)

// NewGridEnum enumerates the grid cells of rel within its bounding box.
// budget caps the number of cells inspected; exceeding it returns
// geom.ErrTooManyCells wrapped with dimension context (the expected
// failure mode when d is not fixed).
func NewGridEnum(rel *constraint.Relation, gamma float64, budget int, r *rng.RNG) (*GridEnum, error) {
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("core: gamma must lie in (0,1), got %g", gamma)
	}
	lo, hi, ok := rel.BoundingBox()
	if !ok {
		return nil, ErrNotWellBounded
	}
	d := rel.Arity()
	// Cell size γ as in Lemma 3.2's proof ("a regular decomposition of
	// the bounding box into cubes of size γ"), scaled by the box extent
	// so γ is a relative resolution.
	maxExtent := 0.0
	for j := range lo {
		if e := hi[j] - lo[j]; e > maxExtent {
			maxExtent = e
		}
	}
	if maxExtent <= 0 {
		return nil, ErrNotWellBounded
	}
	grid := geom.NewGrid(d, gamma*maxExtent)
	pts, err := grid.Enumerate(lo, hi, rel.Contains, budget)
	if err != nil {
		return nil, fmt.Errorf("core: fixed-dimension enumeration in dimension %d: %w", d, err)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: relation has no grid cells at resolution γ=%g", gamma)
	}
	return &GridEnum{rel: rel, grid: grid, points: pts, r: r}, nil
}

// Dim returns the relation arity.
func (g *GridEnum) Dim() int { return g.rel.Arity() }

// Grid returns the enumeration grid.
func (g *GridEnum) Grid() geom.Grid { return g.grid }

// Contains defers to the relation.
func (g *GridEnum) Contains(x linalg.Vector) bool { return g.rel.Contains(x) }

// CellCount returns |V|, the number of enumerated grid points.
func (g *GridEnum) CellCount() int { return len(g.points) }

// Sample returns an exactly uniform grid point of the relation (each
// needed sample is one random index — Lemma 3.2's "choose a cube in S
// with probability 1/n").
func (g *GridEnum) Sample() (linalg.Vector, error) {
	return g.points[g.r.Intn(len(g.points))].Clone(), nil
}

// Volume returns |V| · p^d, the grid measure of the relation (a (1+γ)
// approximation by the γ-grid definition; deterministic).
func (g *GridEnum) Volume() (float64, error) {
	return float64(len(g.points)) * g.grid.CellVolume(), nil
}
