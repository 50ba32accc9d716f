// Package polytope implements H-polytopes {x : A x <= b} and the exact
// geometric computations the paper's fixed-dimension results (Section 3)
// rely on: Chebyshev (inner) balls, bounding boxes and enclosing balls
// (well-boundedness witnesses), affine images, coordinate slices, vertex
// enumeration, exact volume via Lasserre's recursion, and exact volume of
// generalized relations via signed inclusion–exclusion.
//
// The exact volume algorithms are polynomial for fixed dimension and
// exponential in the dimension — exactly the behaviour Lemma 3.1 admits
// and the behaviour the randomized estimators of Section 4 avoid.
package polytope

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/num"
)

// ErrUnbounded is returned when an operation requires a bounded polytope.
var ErrUnbounded = errors.New("polytope: unbounded")

// ErrEmpty is returned when an operation requires a non-empty polytope.
var ErrEmpty = errors.New("polytope: empty")

// MaxExactDim bounds the dimension accepted by the exact (exponential in
// d) algorithms: Volume and Vertices.
const MaxExactDim = 9

// Polytope is the solution set of A x <= b.
type Polytope struct {
	A []linalg.Vector
	B []float64
}

// New returns the polytope {x : a x <= b}. It panics when the row counts
// disagree, which is always a programming error.
func New(a []linalg.Vector, b []float64) *Polytope {
	if len(a) != len(b) {
		panic(fmt.Sprintf("polytope: %d rows vs %d bounds", len(a), len(b)))
	}
	return &Polytope{A: a, B: b}
}

// FromTuple converts a generalized tuple (strictness dropped; the closure
// has the same volume and the same grid discretization up to measure
// zero).
func FromTuple(t constraint.Tuple) *Polytope {
	a, b := t.System()
	return New(a, b)
}

// Tuple converts back to a generalized tuple.
func (p *Polytope) Tuple() constraint.Tuple {
	atoms := make([]constraint.Atom, len(p.A))
	for i := range p.A {
		atoms[i] = constraint.NewAtom(p.A[i], p.B[i], false)
	}
	return constraint.NewTuple(p.Dim(), atoms...)
}

// Dim returns the ambient dimension (0 for a constraint-free polytope,
// whose dimension is unknowable; such polytopes are rejected by the
// geometric routines).
func (p *Polytope) Dim() int {
	if len(p.A) == 0 {
		return 0
	}
	return len(p.A[0])
}

// Rows returns the number of constraints.
func (p *Polytope) Rows() int { return len(p.A) }

// Clone returns a deep copy.
func (p *Polytope) Clone() *Polytope {
	a := make([]linalg.Vector, len(p.A))
	for i, row := range p.A {
		a[i] = row.Clone()
	}
	b := append([]float64{}, p.B...)
	return New(a, b)
}

// Contains reports whether x satisfies every constraint (within
// tolerance).
func (p *Polytope) Contains(x linalg.Vector) bool {
	for i, row := range p.A {
		if row.Dot(x) > p.B[i]+num.Eps {
			return false
		}
	}
	return true
}

// ContainsStrict reports whether x satisfies every constraint with slack
// at least margin.
func (p *Polytope) ContainsStrict(x linalg.Vector, margin float64) bool {
	for i, row := range p.A {
		if row.Dot(x) > p.B[i]-margin {
			return false
		}
	}
	return true
}

// IsEmpty reports infeasibility of the closed polytope.
func (p *Polytope) IsEmpty() bool {
	_, ok := lp.Feasible(p.A, p.B)
	return !ok
}

// Chebyshev returns the centre and radius of the largest inscribed ball:
// the paper's inner-ball witness r_inf for well-boundedness.
func (p *Polytope) Chebyshev() (linalg.Vector, float64, error) {
	return lp.ChebyshevCenter(p.A, p.B)
}

// BoundingBox returns coordinate bounds, failing with ErrUnbounded or
// ErrEmpty as appropriate.
func (p *Polytope) BoundingBox() (lo, hi linalg.Vector, err error) {
	if p.IsEmpty() {
		return nil, nil, ErrEmpty
	}
	lo, hi, ok := lp.BoundingBox(p.A, p.B)
	if !ok {
		return nil, nil, ErrUnbounded
	}
	return lo, hi, nil
}

// EnclosingBall returns a centre and radius R with P ⊆ B(c, R): the
// paper's outer-ball witness r_sup, computed from the bounding box.
func (p *Polytope) EnclosingBall() (linalg.Vector, float64, error) {
	lo, hi, err := p.BoundingBox()
	if err != nil {
		return nil, 0, err
	}
	d := len(lo)
	c := make(linalg.Vector, d)
	var r2 float64
	for j := 0; j < d; j++ {
		c[j] = (lo[j] + hi[j]) / 2
		half := (hi[j] - lo[j]) / 2
		r2 += half * half
	}
	return c, math.Sqrt(r2), nil
}

// WithHalfspace returns p ∩ {x : a·x <= b}.
func (p *Polytope) WithHalfspace(a linalg.Vector, b float64) *Polytope {
	q := p.Clone()
	q.A = append(q.A, a.Clone())
	q.B = append(q.B, b)
	return q
}

// Intersect returns p ∩ q (same dimension).
func (p *Polytope) Intersect(q *Polytope) *Polytope {
	out := p.Clone()
	for i := range q.A {
		out.A = append(out.A, q.A[i].Clone())
		out.B = append(out.B, q.B[i])
	}
	return out
}

// Translate returns p + t.
func (p *Polytope) Translate(t linalg.Vector) *Polytope {
	q := p.Clone()
	for i := range q.A {
		q.B[i] += q.A[i].Dot(t)
	}
	return q
}

// Image returns the image of p under the invertible affine map y = Mx + t:
// {y : (A M^{-1}) y <= b + A M^{-1} t}.
func (p *Polytope) Image(m *linalg.AffineMap) *Polytope {
	a := make([]linalg.Vector, len(p.A))
	b := append([]float64{}, p.B...)
	for i, row := range p.A {
		// row · M^{-1}(y - t) <= b_i, with row · M^{-1} = (M^{-1})^T row.
		a[i] = m.InvTMulVec(row)
		b[i] += a[i].Dot(m.T)
	}
	return New(a, b)
}

// Slice fixes coordinates fixed[i] to values vals[i] and returns the
// polytope over the remaining coordinates (in their original order).
// This is the cylinder H_S(y) of the paper's projection generator
// (Algorithm 2) expressed in the un-projected coordinates.
func (p *Polytope) Slice(fixed []int, vals []float64) *Polytope {
	d := p.Dim()
	isFixed := make([]bool, d)
	value := make([]float64, d)
	for i, j := range fixed {
		isFixed[j] = true
		value[j] = vals[i]
	}
	var keep []int
	for j := 0; j < d; j++ {
		if !isFixed[j] {
			keep = append(keep, j)
		}
	}
	a := make([]linalg.Vector, 0, len(p.A))
	b := make([]float64, 0, len(p.B))
	for i, row := range p.A {
		newRow := make(linalg.Vector, len(keep))
		rhs := p.B[i]
		for k, j := range keep {
			newRow[k] = row[j]
		}
		for j := 0; j < d; j++ {
			if isFixed[j] {
				rhs -= row[j] * value[j]
			}
		}
		// Constant rows (all kept coefficients ~0) are retained: they make
		// the slice empty when violated.
		a = append(a, newRow)
		b = append(b, rhs)
	}
	return New(a, b)
}

// Chord returns the parameter interval [tmin, tmax] for which x + t·dir
// stays inside the polytope. ok is false only when the line misses the
// polytope; bounds may be ±Inf when the polytope is unbounded along dir
// (callers composing chords — e.g. body intersections — clamp them).
// Exact chords make hit-and-run steps O(m) instead of a binary search on
// the membership oracle.
func (p *Polytope) Chord(x, dir linalg.Vector) (tmin, tmax float64, ok bool) {
	tmin, tmax = math.Inf(-1), math.Inf(1)
	for i, row := range p.A {
		if tmin, tmax, ok = ClipChord(tmin, tmax, p.B[i]-row.Dot(x), row.Dot(dir)); !ok {
			return 0, 0, false
		}
	}
	if tmax < tmin {
		return 0, 0, false
	}
	return tmin, tmax, true
}

// ClipChord narrows the chord [tmin, tmax] of a line x + t·dir by one
// constraint a·x <= b, given its slack b − a·x at the base point and its
// rate a·dir along the line. ok is false when the line runs parallel to
// the constraint outside its halfspace; the bounds are then meaningless.
// Chord is ClipChord over every row; a walker that carries a·x along its
// chords clips from its stored slack instead.
func ClipChord(tmin, tmax, slack, rate float64) (lo, hi float64, ok bool) {
	// The sign of a random direction's rate is a coin flip, so the bound
	// it moves is picked by integer selects rather than by branches.
	t := math.Float64bits(slack / rate)
	var hiBits, loBits uint64 = posInfBits, negInfBits
	if rate > num.Eps {
		hiBits = t
	}
	if rate < -num.Eps {
		loBits = t
	}
	ok = slack >= -num.Eps || math.Abs(rate) > num.Eps
	return max(tmin, math.Float64frombits(loBits)), min(tmax, math.Float64frombits(hiBits)), ok
}

// posInfBits and negInfBits are the IEEE 754 bits of +Inf and −Inf.
const posInfBits, negInfBits = 0x7ff0000000000000, 0xfff0000000000000

// RemoveRedundant drops constraints implied by the others (one LP per
// constraint).
func (p *Polytope) RemoveRedundant() *Polytope {
	a := make([]linalg.Vector, len(p.A))
	copy(a, p.A)
	b := append([]float64{}, p.B...)
	for i := 0; i < len(a); i++ {
		others := append([]linalg.Vector{}, a[:i]...)
		others = append(others, a[i+1:]...)
		rhs := append([]float64{}, b[:i]...)
		rhs = append(rhs, b[i+1:]...)
		if len(others) == 0 {
			break
		}
		v, ok := lp.Extent(others, rhs, a[i])
		if ok && v <= b[i]+num.Eps {
			a = append(a[:i], a[i+1:]...)
			b = append(b[:i], b[i+1:]...)
			i--
		}
	}
	return New(a, b)
}

// Volume computes the exact d-dimensional volume by Lasserre's recursive
// formula
//
//	vol_d(P) = (1/d) Σ_i dist(x0, H_i) · vol_{d-1}(P ∩ H_i),
//
// where x0 is the Chebyshev centre and H_i the i-th facet hyperplane.
// It is exact and polynomial for fixed dimension but exponential in d
// (Lemma 3.1's regime); dimensions above MaxExactDim are rejected.
func (p *Polytope) Volume() (float64, error) {
	d := p.Dim()
	if d == 0 {
		return 0, ErrUnbounded
	}
	if d > MaxExactDim {
		return 0, fmt.Errorf("polytope: exact volume limited to dimension <= %d (got %d); use the randomized estimator", MaxExactDim, d)
	}
	if p.IsEmpty() {
		return 0, nil
	}
	if _, _, err := p.BoundingBox(); err != nil {
		return 0, err
	}
	q := p.RemoveRedundant()
	return lasserre(q.A, q.B), nil
}

// lasserre is the recursion body; inputs define a bounded (possibly
// empty or degenerate) polytope.
func lasserre(a []linalg.Vector, b []float64) float64 {
	a, b = dedupRows(a, b)
	d := len(a[0])
	if d == 1 {
		lo, hi := math.Inf(-1), math.Inf(1)
		for i, row := range a {
			c := row[0]
			switch {
			case c > num.Eps:
				if v := b[i] / c; v < hi {
					hi = v
				}
			case c < -num.Eps:
				if v := b[i] / c; v > lo {
					lo = v
				}
			default:
				if b[i] < -num.Eps {
					return 0
				}
			}
		}
		if hi <= lo || math.IsInf(hi, 1) || math.IsInf(lo, -1) {
			return 0
		}
		return hi - lo
	}
	// Recentre at the Chebyshev centre so every signed distance is
	// non-negative (improves stability and guarantees positivity).
	c, r, err := lp.ChebyshevCenter(a, b)
	if err != nil {
		return 0
	}
	if r <= num.Eps {
		return 0 // flat polytope: zero d-volume
	}
	shifted := make([]float64, len(b))
	for i := range b {
		shifted[i] = b[i] - a[i].Dot(c)
	}
	terms := make([]float64, 0, len(a))
	for i := range a {
		norm := a[i].Norm()
		if norm <= num.Eps {
			continue
		}
		dist := shifted[i] / norm
		if dist <= num.Eps {
			continue // facet through the centre contributes nothing measurable
		}
		fv := facetVolume(a, shifted, i)
		if fv > 0 {
			terms = append(terms, dist*fv)
		}
	}
	return num.Sum(terms) / float64(d)
}

// dedupRows removes duplicate halfspaces (same normalized row and bound),
// keeping the tighter bound for parallel rows pointing the same way. Two
// distinct parent constraints can substitute to the same halfspace one
// recursion level down; without deduplication their shared facet would be
// counted twice.
func dedupRows(a []linalg.Vector, b []float64) ([]linalg.Vector, []float64) {
	outA := make([]linalg.Vector, 0, len(a))
	outB := make([]float64, 0, len(b))
	for i, row := range a {
		norm := row.Norm()
		if norm <= num.Eps {
			// Trivial rows: keep an infeasibility witness, drop the rest.
			if b[i] < -num.Eps {
				outA = append(outA, row)
				outB = append(outB, b[i])
			}
			continue
		}
		unit := row.Scale(1 / norm)
		bound := b[i] / norm
		merged := false
		for k := range outA {
			n2 := outA[k].Norm()
			if n2 <= num.Eps {
				continue
			}
			if outA[k].Scale(1/n2).Equal(unit, 1e-9) {
				if bound < outB[k]/n2 {
					outA[k] = unit
					outB[k] = bound
				}
				merged = true
				break
			}
		}
		if !merged {
			outA = append(outA, unit)
			outB = append(outB, bound)
		}
	}
	return outA, outB
}

// facetVolume returns the (d-1)-volume of the facet P ∩ {a_i x = b_i} by
// substituting out the coordinate with the largest |a_i| entry and
// recursing; the Jacobian factor ||a_i|| / |a_ik| converts the volume of
// the projected polytope back to the facet's intrinsic volume.
func facetVolume(a []linalg.Vector, b []float64, i int) float64 {
	row := a[i]
	d := len(row)
	k, best := -1, 0.0
	for j, v := range row {
		if math.Abs(v) > best {
			best, k = math.Abs(v), j
		}
	}
	if k < 0 {
		return 0
	}
	aik := row[k]
	bi := b[i]
	subA := make([]linalg.Vector, 0, len(a)-1)
	subB := make([]float64, 0, len(b)-1)
	for l := range a {
		if l == i {
			continue
		}
		alk := a[l][k]
		newRow := make(linalg.Vector, 0, d-1)
		for j := 0; j < d; j++ {
			if j == k {
				continue
			}
			newRow = append(newRow, a[l][j]-alk*row[j]/aik)
		}
		subA = append(subA, newRow)
		subB = append(subB, b[l]-alk*bi/aik)
	}
	if len(subA) == 0 {
		return 0
	}
	sub := lasserre(subA, subB)
	if sub == 0 {
		return 0
	}
	return sub * row.Norm() / math.Abs(aik)
}

// Vertices enumerates the vertices of a bounded polytope by solving
// every d-subset of tight constraints (exponential in d; rejected above
// MaxExactDim).
func (p *Polytope) Vertices() ([]linalg.Vector, error) {
	d := p.Dim()
	if d == 0 {
		return nil, ErrUnbounded
	}
	if d > MaxExactDim {
		return nil, fmt.Errorf("polytope: vertex enumeration limited to dimension <= %d", MaxExactDim)
	}
	if _, _, err := p.BoundingBox(); err != nil {
		return nil, err
	}
	m := len(p.A)
	idx := make([]int, d)
	var verts []linalg.Vector
	var rec func(start, k int)
	mat := linalg.NewMatrix(d, d)
	rhs := make(linalg.Vector, d)
	rec = func(start, k int) {
		if k == d {
			for r := 0; r < d; r++ {
				copy(mat.Data[r*d:(r+1)*d], p.A[idx[r]])
				rhs[r] = p.B[idx[r]]
			}
			x, err := linalg.SolveSystem(mat, rhs, 1e-10)
			if err != nil {
				return
			}
			if !p.Contains(x) {
				return
			}
			for _, v := range verts {
				if v.Equal(x, 1e-7) {
					return
				}
			}
			verts = append(verts, x)
			return
		}
		for i := start; i <= m-(d-k); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return verts, nil
}

// RelationVolume computes the exact volume of a generalized relation by
// signed inclusion–exclusion over its tuples:
//
//	vol(∪ T_i) = Σ_{∅≠J} (−1)^{|J|+1} vol(∩_{j∈J} T_j).
//
// Each intersection is a polytope measured exactly by Volume. The cost is
// exponential in the number of tuples and in the dimension — the paper's
// Lemma 3.1 regime (exact evaluation is polynomial only for fixed
// dimension). Tuples beyond maxTuples are rejected.
func RelationVolume(r *constraint.Relation) (float64, error) {
	return RelationVolumeInterruptible(r, nil)
}

// RelationVolumeInterruptible is RelationVolume with an optional
// interrupt polled once per inclusion–exclusion term (up to 2^n − 1 of
// them), so serving layers can abandon the exponential pass when the
// request is cancelled. A non-nil interrupt return aborts with that
// error.
func RelationVolumeInterruptible(r *constraint.Relation, interrupt func() error) (float64, error) {
	const maxTuples = 20
	tuples := r.PruneEmpty().Tuples
	n := len(tuples)
	if n == 0 {
		return 0, nil
	}
	if n > maxTuples {
		return 0, fmt.Errorf("polytope: inclusion-exclusion limited to %d tuples (got %d)", maxTuples, n)
	}
	polys := make([]*Polytope, n)
	for i, t := range tuples {
		polys[i] = FromTuple(t)
	}
	terms := make([]float64, 0, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		if interrupt != nil {
			if err := interrupt(); err != nil {
				return 0, err
			}
		}
		var inter *Polytope
		bits := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			bits++
			if inter == nil {
				inter = polys[i].Clone()
			} else {
				inter = inter.Intersect(polys[i])
			}
		}
		if inter.IsEmpty() {
			continue
		}
		v, err := inter.Volume()
		if err != nil {
			return 0, err
		}
		if bits%2 == 1 {
			terms = append(terms, v)
		} else {
			terms = append(terms, -v)
		}
	}
	vol := num.Sum(terms)
	if vol < 0 {
		vol = 0 // rounding in alternating sums
	}
	return vol, nil
}
