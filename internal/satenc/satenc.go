// Package satenc implements the paper's geometric SAT encoding
// (Section 4.1.3): with each literal x (resp. ¬x) associate the
// constraint 3/4 < x < 1 (resp. 0 < x < 1/4); a clause is the finite
// union of its literal slabs (observable); a CNF instance is the
// intersection of its clause relations. Relative volume approximation of
// that intersection decides satisfiability, which is why the paper's
// poly-relatedness restriction on intersections is necessary unless
// P = NP. The experiments use this encoding to watch the intersection
// generator abort (experiment E10).
package satenc

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// Literal is a 1-based variable index, negative for negated literals
// (the DIMACS convention).
type Literal int

// Clause is a disjunction of literals.
type Clause []Literal

// Instance is a CNF formula.
type Instance struct {
	NumVars int
	Clauses []Clause
}

// LiteralTuple returns the generalized tuple for one literal inside the
// unit cube: the cube constraints keep every tuple well-bounded.
func LiteralTuple(lit Literal, nvars int) constraint.Tuple {
	v := int(lit)
	neg := false
	if v < 0 {
		v, neg = -v, true
	}
	if v < 1 || v > nvars {
		panic(fmt.Sprintf("satenc: literal %d out of range 1..%d", lit, nvars))
	}
	tup := constraint.Cube(nvars, 0, 1)
	coefLo := make(linalg.Vector, nvars)
	coefHi := make(linalg.Vector, nvars)
	coefLo[v-1] = -1
	coefHi[v-1] = 1
	if neg {
		// 0 < x_v < 1/4.
		return tup.With(
			constraint.NewAtom(coefLo, 0, true),    // -x < 0
			constraint.NewAtom(coefHi, 0.25, true), // x < 1/4
		)
	}
	// 3/4 < x_v < 1.
	return tup.With(
		constraint.NewAtom(coefLo, -0.75, true), // -x < -3/4
		constraint.NewAtom(coefHi, 1, true),     // x < 1
	)
}

// ClauseRelation returns the clause as a generalized relation: the union
// of its literal slabs (a finite union of convex sets, hence observable).
func ClauseRelation(c Clause, nvars int) *constraint.Relation {
	vars := make([]string, nvars)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i+1)
	}
	tuples := make([]constraint.Tuple, len(c))
	for i, lit := range c {
		tuples[i] = LiteralTuple(lit, nvars)
	}
	return constraint.MustRelation(fmt.Sprintf("clause%d", len(c)), vars, tuples...)
}

// Observables builds one union observable per clause, each prepared and
// bound from its own split of r; their intersection (via
// core.NewIntersection) is the instance's geometric encoding.
func (ins Instance) Observables(r *rng.RNG, opts core.Options) ([]core.Observable, error) {
	out := make([]core.Observable, 0, len(ins.Clauses))
	for i, c := range ins.Clauses {
		cr := r.Split()
		prep, err := core.PrepareRelation(ClauseRelation(c, ins.NumVars), cr, opts)
		if err != nil {
			return nil, fmt.Errorf("satenc: clause %d: %w", i, err)
		}
		obs, err := prep.Bind(cr)
		if err != nil {
			return nil, fmt.Errorf("satenc: clause %d: %w", i, err)
		}
		out = append(out, obs)
	}
	return out, nil
}

// Decode maps a point of the unit cube back to a partial assignment:
// true for x > 3/4, false for x < 1/4, unassigned otherwise.
func Decode(x linalg.Vector) []int {
	out := make([]int, len(x))
	for i, v := range x {
		switch {
		case v > 0.75:
			out[i] = 1
		case v < 0.25:
			out[i] = -1
		}
	}
	return out
}

// SatisfiedByPartial reports whether the partial assignment produced by
// Decode (+1 true, −1 false, 0 unassigned) already satisfies every
// clause — i.e. every completion of it is a witness. Points sampled from
// the clause intersection decode to exactly such partial assignments:
// variables no clause needed may remain in the middle band.
func (ins Instance) SatisfiedByPartial(dec []int) bool {
	for _, c := range ins.Clauses {
		ok := false
		for _, lit := range c {
			v := int(lit)
			if v > 0 && dec[v-1] == 1 || v < 0 && dec[-v-1] == -1 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Satisfies reports whether the boolean assignment (true/false per
// variable) satisfies the instance.
func (ins Instance) Satisfies(assign []bool) bool {
	for _, c := range ins.Clauses {
		ok := false
		for _, lit := range c {
			v := int(lit)
			if v > 0 && assign[v-1] || v < 0 && !assign[-v-1] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// CountSatisfying brute-forces the number of satisfying assignments
// (ground truth for small instances; the satisfying region of the
// geometric encoding has volume count·(1/4)^n).
func (ins Instance) CountSatisfying() int {
	if ins.NumVars > 24 {
		panic("satenc: brute force limited to 24 variables")
	}
	count := 0
	assign := make([]bool, ins.NumVars)
	for mask := 0; mask < 1<<ins.NumVars; mask++ {
		for i := range assign {
			assign[i] = mask&(1<<i) != 0
		}
		if ins.Satisfies(assign) {
			count++
		}
	}
	return count
}

// Satisfiable reports brute-force satisfiability.
func (ins Instance) Satisfiable() bool { return ins.CountSatisfying() > 0 }

// SatisfyingVolume returns the exact volume of the geometric encoding's
// intersection: count · (1/4)^n (each satisfying corner contributes one
// (1/4)-side subcube).
func (ins Instance) SatisfyingVolume() float64 {
	count := ins.CountSatisfying()
	v := float64(count)
	for i := 0; i < ins.NumVars; i++ {
		v *= 0.25
	}
	return v
}

// RandomKSAT draws a uniform k-SAT instance with m clauses over n
// variables (distinct variables within a clause).
func RandomKSAT(r *rng.RNG, n, m, k int) Instance {
	if k > n {
		panic("satenc: clause width exceeds variable count")
	}
	ins := Instance{NumVars: n}
	for c := 0; c < m; c++ {
		perm := r.Perm(n)
		clause := make(Clause, k)
		for i := 0; i < k; i++ {
			v := perm[i] + 1
			if r.Bool() {
				v = -v
			}
			clause[i] = Literal(v)
		}
		ins.Clauses = append(ins.Clauses, clause)
	}
	return ins
}
