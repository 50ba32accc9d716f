package main

// Answer checking: exact membership of every sampled point and exact
// volumes, computed from the symbolic (Fourier–Motzkin) evaluation of the
// same expression outside any runtime, so checking never touches the
// caches being measured.

import (
	"fmt"
	"math"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/query"
	sqldialect "repro/internal/sql"
)

// oracle is the exact quantifier-free relation an expression denotes.
type oracle struct {
	rel *constraint.Relation
}

// oracleOf evaluates node symbolically: for ∃-projections this is the
// FM-eliminated relation.
func oracleOf(db *constraint.Database, node *query.Node) (*oracle, error) {
	sq, err := node.CompileSymbolic(db)
	if err != nil {
		return nil, err
	}
	rel, err := sq.Eval()
	if err != nil {
		return nil, err
	}
	return &oracle{rel: rel}, nil
}

// sqlOracle is oracleOf for a statement's body.
func sqlOracle(db *constraint.Database, stmt string) (*oracle, error) {
	c, err := sqldialect.Compile(db, stmt)
	if err != nil {
		return nil, err
	}
	return oracleOf(db, c.Node)
}

// contains is membership with a relative tolerance of 1e-9: sampled
// points come back through the inverse rounding map and can sit a few
// ulps outside a facet they lie on.
func (o *oracle) contains(x linalg.Vector) bool {
	for _, t := range o.rel.Tuples {
		in := true
		for _, a := range t.Atoms {
			if a.Coef.Dot(x) > a.B+1e-9*(1+math.Abs(a.B)+a.Coef.Norm()*x.Norm()) {
				in = false
				break
			}
		}
		if in {
			return true
		}
	}
	return false
}

// checkPoints verifies a draw: n points of the right dimension, each
// inside the target.
func (o *oracle) checkPoints(pts []linalg.Vector, n int) error {
	if len(pts) != n {
		return fmt.Errorf("got %d points, want %d", len(pts), n)
	}
	for i, p := range pts {
		if len(p) != o.rel.Arity() {
			return fmt.Errorf("point %d has dimension %d, want %d", i, len(p), o.rel.Arity())
		}
		if !o.contains(p) {
			return fmt.Errorf("point %d %v is outside the target", i, p)
		}
	}
	return nil
}

// volume is the exact volume of the target.
func (o *oracle) volume() (float64, error) {
	return polytope.RelationVolume(o.rel)
}

// pointsHash fingerprints a draw's exact bits, for the traced run's
// byte-identity check.
func pointsHash(pts []linalg.Vector) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range pts {
		for _, v := range p {
			b := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				h ^= b & 0xff
				h *= 1099511628211
				b >>= 8
			}
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// vectors converts decoded JSON points.
func vectors(p [][]float64) []linalg.Vector {
	out := make([]linalg.Vector, len(p))
	for i := range p {
		out[i] = p[i]
	}
	return out
}

// defaultEps is the ε of the options every workload runs under.
func defaultEps() float64 { return cdb.DefaultOptions().Params.Eps }
