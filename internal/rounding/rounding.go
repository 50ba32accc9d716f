// Package rounding puts convex bodies into well-rounded position: the
// first step of the Dyer–Frieze–Kannan generator computes a non-singular
// affine transformation Q such that Q(K) contains the unit ball and is
// contained in a ball of radius O(d^{3/2}) (Section 2 of the paper).
//
// For H-polytopes the package recentres on the Chebyshev ball exactly and
// then runs isotropy (covariance) rounding with hit-and-run samples; for
// membership-only bodies it applies the caller-supplied inner/outer
// witnesses. The resulting sandwiching ratio is reported so samplers can
// budget their walks.
//
// An H-polytope comes back folded: its rounded body is the polytope
// Image(Q), with rows A·M⁻¹ and bounds b + A·M⁻¹·T built once for each
// map a rounding pass produces, so the walks, the sandwich probes and the
// volume phases run on a plain polytope and never take a pre-image. Any
// other body comes back as a walk.MappedBody, which pre-images every
// query through Q⁻¹.
package rounding

import (
	"errors"
	"math"

	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

// ErrNotWellBounded is returned when no inner ball witness is available
// (the paper's algorithms all assume well-bounded relations).
var ErrNotWellBounded = errors.New("rounding: body is not well-bounded (no inner ball)")

// Rounded describes a body in well-rounded position.
type Rounded struct {
	// Body is the rounded body: Map applied to the original. It is a
	// *polytope.Polytope (the folded image) when the original is one, and
	// a walk.MappedBody otherwise.
	Body walk.Body
	// Map sends original-space points to rounded-space points.
	Map *linalg.AffineMap
	// InnerRadius and OuterRadius sandwich the rounded body:
	// B(0, InnerRadius) ⊆ Body ⊆ B(0, OuterRadius).
	InnerRadius, OuterRadius float64
}

// Ratio returns the sandwiching ratio R/r of the rounded body.
func (ro *Rounded) Ratio() float64 { return ro.OuterRadius / ro.InnerRadius }

// Options tunes the rounding pass.
type Options struct {
	// Iterations of covariance rounding (0 disables; 2–3 suffice for the
	// elongated bodies in the experiments).
	Iterations int
	// SamplesPerIteration used to estimate the covariance (default 4d+16).
	SamplesPerIteration int
	// WalkSteps per covariance sample (default DefaultHitAndRunSteps).
	WalkSteps int
}

// Round places the body in well-rounded position. innerCenter/innerR and
// outerR are the well-boundedness witnesses r_inf and r_sup of the
// paper; innerR must be positive.
func Round(body walk.Body, innerCenter linalg.Vector, innerR, outerR float64, r *rng.RNG, opts Options) (*Rounded, error) {
	if innerR <= 0 {
		return nil, ErrNotWellBounded
	}
	d := body.Dim()
	// Step 1: translate the inner centre to the origin and scale by 1/r
	// so the unit ball fits inside.
	m := linalg.Identity(d)
	for i := 0; i < d; i++ {
		m.Set(i, i, 1/innerR)
	}
	t := make(linalg.Vector, d)
	for i := range t {
		t[i] = -innerCenter[i] / innerR
	}
	am, err := linalg.NewAffineMap(m, t)
	if err != nil {
		return nil, err
	}
	cur := &Rounded{
		Body:        image(body, am),
		Map:         am,
		InnerRadius: 1,
		OuterRadius: outerR / innerR,
	}
	if opts.Iterations <= 0 {
		return cur, nil
	}
	samples := opts.SamplesPerIteration
	if samples <= 0 {
		samples = 4*d + 16
	}
	for it := 0; it < opts.Iterations; it++ {
		if cur.Ratio() < 4 {
			break // already well-rounded enough for fast mixing
		}
		next, err := isotropyStep(body, cur, samples, opts.WalkSteps, r)
		if err != nil {
			// Rounding is best-effort: return the current sandwich.
			return cur, nil
		}
		cur = next
	}
	return cur, nil
}

// isotropyStep samples the current rounded body, computes the sample
// covariance, and composes the whitening transform into the map.
func isotropyStep(orig walk.Body, cur *Rounded, samples, walkSteps int, r *rng.RNG) (*Rounded, error) {
	d := orig.Dim()
	if walkSteps <= 0 {
		walkSteps = walk.DefaultHitAndRunSteps(d, cur.Ratio())
	}
	w, err := walk.New(cur.Body, make(linalg.Vector, d), r, walk.Config{
		Kind:        walk.HitAndRun,
		OuterRadius: cur.OuterRadius,
	})
	if err != nil {
		return nil, err
	}
	pts := make([]linalg.Vector, samples)
	for i := range pts {
		pts[i] = w.Sample(walkSteps)
	}
	mean := make(linalg.Vector, d)
	for _, p := range pts {
		mean.AddScaled(1, p)
	}
	mean = mean.Scale(1 / float64(samples))
	cov := linalg.NewMatrix(d, d)
	for _, p := range pts {
		diff := p.Sub(mean)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cov.Set(i, j, cov.At(i, j)+diff[i]*diff[j])
			}
		}
	}
	for i := range cov.Data {
		cov.Data[i] /= float64(samples - 1)
	}
	// Regularise: keep the covariance comfortably positive definite.
	for i := 0; i < d; i++ {
		cov.Set(i, i, cov.At(i, i)+1e-8)
	}
	l, err := linalg.Cholesky(cov)
	if err != nil {
		return nil, err
	}
	// Whitening map y = L^{-1}(x - mean); build L^{-1} via solves.
	linv, err := invertLowerTriangular(l)
	if err != nil {
		return nil, err
	}
	shift := linv.MulVec(mean).Scale(-1)
	white, err := linalg.NewAffineMap(linv, shift)
	if err != nil {
		return nil, err
	}
	composed, err := white.Compose(cur.Map)
	if err != nil {
		return nil, err
	}
	inner, outer, err := sandwich(image(orig, composed), r)
	if err != nil {
		return nil, err
	}
	// Rescale so the inner radius is exactly 1.
	scale := linalg.Identity(d)
	for i := 0; i < d; i++ {
		scale.Set(i, i, 1/inner)
	}
	scaleMap, err := linalg.NewAffineMap(scale, make(linalg.Vector, d))
	if err != nil {
		return nil, err
	}
	finalMap, err := scaleMap.Compose(composed)
	if err != nil {
		return nil, err
	}
	return &Rounded{
		Body:        image(orig, finalMap),
		Map:         finalMap,
		InnerRadius: 1,
		OuterRadius: outer / inner,
	}, nil
}

// image returns body in the rounded space of m: an H-polytope folded
// into its constraints, any other body wrapped as a MappedBody.
func image(body walk.Body, m *linalg.AffineMap) walk.Body {
	if p, ok := body.(*polytope.Polytope); ok {
		return p.Image(m)
	}
	return walk.MappedBody{Orig: body, Map: m}
}

// sandwich probes the body along random directions through the origin to
// estimate inner and outer radii of the (assumed origin-containing)
// body. The inner estimate is the minimum boundary distance, the outer
// the maximum, both over 8d directions.
func sandwich(body walk.Body, r *rng.RNG) (inner, outer float64, err error) {
	d := body.Dim()
	if !body.Contains(make(linalg.Vector, d)) {
		return 0, 0, errors.New("rounding: origin left the body during rounding")
	}
	dir := make(linalg.Vector, d)
	inner, outer = math.Inf(1), 0
	hasChord := walk.ChordSupport(body)
	var cb walk.ChordBody
	if hasChord {
		cb = body.(walk.ChordBody)
	}
	for k := 0; k < 8*d; k++ {
		r.OnSphere(dir)
		var lo, hi float64
		if hasChord {
			var ok bool
			lo, hi, ok = cb.Chord(make(linalg.Vector, d), dir)
			if !ok {
				continue
			}
		} else {
			hi = probeBoundary(body, dir, +1)
			lo = -probeBoundary(body, dir, -1)
		}
		for _, t := range []float64{math.Abs(lo), math.Abs(hi)} {
			if t < inner {
				inner = t
			}
			if t > outer {
				outer = t
			}
		}
	}
	if math.IsInf(inner, 1) || inner <= 0 {
		return 0, 0, errors.New("rounding: could not sandwich the body")
	}
	return inner, outer, nil
}

// probeBoundary doubles then bisects along ±dir from the origin.
func probeBoundary(body walk.Body, dir linalg.Vector, sign float64) float64 {
	probe := make(linalg.Vector, len(dir))
	at := func(t float64) bool {
		for i := range probe {
			probe[i] = sign * t * dir[i]
		}
		return body.Contains(probe)
	}
	hi := 1.0
	for at(hi) && hi < 1e12 {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if at(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// invertLowerTriangular inverts a lower-triangular matrix by forward
// substitution on unit vectors.
func invertLowerTriangular(l *linalg.Matrix) (*linalg.Matrix, error) {
	n := l.Rows
	inv := linalg.NewMatrix(n, n)
	for col := 0; col < n; col++ {
		for i := 0; i < n; i++ {
			var rhs float64
			if i == col {
				rhs = 1
			}
			s := rhs
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * inv.At(k, col)
			}
			diag := l.At(i, i)
			if diag == 0 {
				return nil, linalg.ErrSingular
			}
			inv.Set(i, col, s/diag)
		}
	}
	return inv, nil
}
