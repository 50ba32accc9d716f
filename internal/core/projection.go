package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// Projection is the paper's projection generator (Theorem 4.3,
// Algorithm 2) for a convex relation S ⊆ R^d projected onto the
// coordinates in Keep. A uniform sample of S projects to a *non-uniform*
// point of T = π_I(S) — the paper's Figure 1 — because fat cylinders
// attract more mass; Algorithm 2 compensates by accepting a projected
// point y with probability inversely proportional to the (estimated)
// volume ĥ(y) of the cylinder H_S(y) above it.
type Projection struct {
	poly  *polytope.Polytope
	keep  []int // coordinates of T (the set I)
	drop  []int // complementary coordinates
	src   *Convex
	grid  geom.Grid // γ-grid on the projected space
	opts  Options
	r     *rng.RNG
	inner float64 // inner radius witness of T (projection of S's inner ball)

	// hCache memoizes cylinder sizes per grid cell: the walk revisits
	// cells constantly and exact slice volumes are not free.
	hCache map[string]float64
	// cRef is the acceptance normalisation: accept with probability
	// min(1, cRef/ĥ). The paper's Algorithm 2 uses cRef = 1 (one grid
	// cell), which is exactly right when a single coordinate is
	// eliminated (the cylinder is one grid column, the case its
	// acceptance analysis covers). When k ≥ 2 coordinates are
	// eliminated, cylinder sizes scale like p^{-k} and the constant-1
	// normalisation makes acceptance exponentially small in k; a pilot
	// phase then sets cRef to half the smallest observed cylinder —
	// uniformity is exact on every cell with ĥ ≥ cRef and only cells
	// thinner than half the observed minimum are (slightly) under-
	// weighted. The paper's analysis covers one eliminated coordinate
	// only; for k ≥ 2 this slight bias on the thinnest cells is the
	// price of an acceptance rate that does not vanish like p^k.
	cRef float64

	rounds, accepts int

	vol      float64
	volKnown bool
}

var _ Observable = (*Projection)(nil)

// NewProjection builds the generator for π_keep(S), S given as an
// H-polytope. keep must be a strict, non-empty subset of coordinates.
func NewProjection(poly *polytope.Polytope, keep []int, r *rng.RNG, opts Options) (*Projection, error) {
	d := poly.Dim()
	if len(keep) == 0 || len(keep) >= d {
		return nil, fmt.Errorf("core: projection must keep a strict non-empty coordinate subset (keep %d of %d)", len(keep), d)
	}
	seen := make(map[int]bool)
	for _, j := range keep {
		if j < 0 || j >= d || seen[j] {
			return nil, fmt.Errorf("core: invalid projection coordinate %d", j)
		}
		seen[j] = true
	}
	var drop []int
	for j := 0; j < d; j++ {
		if !seen[j] {
			drop = append(drop, j)
		}
	}
	src, err := NewConvexPolytope(poly, r.Split(), opts)
	if err != nil {
		return nil, err
	}
	// The projection of S's inner ball is an inner ball of T with the
	// same radius (the paper's witness argument in Theorem 4.3's proof).
	_, innerR, err := poly.Chebyshev()
	if err != nil {
		return nil, err
	}
	p := opts.params()
	grid := geom.NewGrid(len(keep), geom.StepForGamma(p.Gamma, len(keep), innerR))
	return &Projection{
		poly: poly, keep: keep, drop: drop, src: src,
		grid: grid, opts: opts, r: r, inner: innerR,
		hCache: make(map[string]float64),
	}, nil
}

// calibrate sets the acceptance normalisation cRef. For single-
// coordinate elimination it is the paper's constant 1; otherwise a
// pilot of naive projections estimates the smallest occupied cylinder.
func (pr *Projection) calibrate() error {
	if pr.cRef > 0 {
		return nil
	}
	if len(pr.drop) == 1 {
		pr.cRef = 1
		return nil
	}
	const pilot = 48
	minH := math.Inf(1)
	for i := 0; i < pilot; i++ {
		if err := pr.opts.interrupted(); err != nil {
			return err
		}
		x, err := pr.src.Sample()
		if err != nil {
			continue
		}
		h, err := pr.cylinderCells(pr.grid.Snap(pr.project(x)))
		if err != nil {
			return err
		}
		if h > 0 && h < minH {
			minH = h
		}
	}
	if math.IsInf(minH, 1) {
		return fmt.Errorf("%w: projection pilot saw no occupied cylinders", ErrGeneratorFailed)
	}
	pr.cRef = minH / 2
	if pr.cRef < 1 {
		pr.cRef = 1
	}
	return nil
}

// Dim returns the dimension of the projected space.
func (pr *Projection) Dim() int { return len(pr.keep) }

// Grid returns the γ-grid of the projected space.
func (pr *Projection) Grid() geom.Grid { return pr.grid }

// Contains decides y ∈ T by LP feasibility of the cylinder H_S(y) — the
// membership oracle for a projection that symbolic evaluation would need
// Fourier–Motzkin to produce.
func (pr *Projection) Contains(y linalg.Vector) bool {
	slice := pr.poly.Slice(pr.keep, y)
	return !slice.IsEmpty()
}

// project extracts the kept coordinates of x.
func (pr *Projection) project(x linalg.Vector) linalg.Vector {
	y := make(linalg.Vector, len(pr.keep))
	for i, j := range pr.keep {
		y[i] = x[j]
	}
	return y
}

// cylinderCells estimates ĥ(y): the number of grid cells in the cylinder
// H_S(y), i.e. vol(S ∩ {x_I = y}) / p^{d-e}. A cylinder over one
// eliminated coordinate — the case Algorithm 2's acceptance analysis
// covers — is a segment, measured exactly as S's chord along that axis
// (chordCells). Wider slices of dimension at most polytope.MaxExactDim
// are measured exactly (Lasserre); higher ones fall back to a nested DFK
// estimate, exactly as the paper composes its estimators.
func (pr *Projection) cylinderCells(y linalg.Vector) (float64, error) {
	key := pr.grid.Key(y)
	if h, ok := pr.hCache[key]; ok {
		return h, nil
	}
	h, err := pr.cylinderCellsUncached(y)
	if err != nil {
		return 0, err
	}
	pr.hCache[key] = h
	return h, nil
}

func (pr *Projection) cylinderCellsUncached(y linalg.Vector) (float64, error) {
	k := len(pr.drop)
	if k == 1 {
		return pr.chordCells(y)
	}
	slice := pr.poly.Slice(pr.keep, y)
	if slice.IsEmpty() {
		return 0, nil
	}
	var h float64
	if k <= polytope.MaxExactDim {
		v, err := slice.Volume()
		if err != nil {
			return 0, err
		}
		h = v
	} else {
		nested, err := NewConvexPolytope(slice, pr.r.Split(), pr.opts)
		if err != nil {
			// A flat slice has zero k-volume.
			return 0, nil
		}
		v, err := nested.Volume()
		if err != nil {
			return 0, err
		}
		h = v
	}
	return h / math.Pow(pr.grid.Step, float64(k)), nil
}

// chordCells measures a one-coordinate cylinder: the line through y
// along the eliminated axis meets S in the segment H_S(y), whose length
// is S's chord there. One pass over the rows gives the exact value that
// a slice would reach through an LP emptiness test, redundancy-removal
// LPs and a one-dimensional Lasserre recursion; a line that misses S
// (y outside T) has an empty chord and ĥ = 0.
func (pr *Projection) chordCells(y linalg.Vector) (float64, error) {
	d := pr.poly.Dim()
	x := make(linalg.Vector, d)
	for i, j := range pr.keep {
		x[j] = y[i]
	}
	dir := make(linalg.Vector, d)
	dir[pr.drop[0]] = 1
	tmin, tmax, ok := pr.poly.Chord(x, dir)
	if !ok {
		return 0, nil
	}
	if math.IsInf(tmin, -1) || math.IsInf(tmax, 1) {
		return 0, polytope.ErrUnbounded
	}
	return (tmax - tmin) / pr.grid.Step, nil
}

// Sample implements Algorithm 2: draw x from S, project and snap y to
// the γ-grid of T, estimate the cylinder size ĥ(y), and accept with
// probability min(1, 1/ĥ(y)). The resulting density over grid cells is
// constant (each cell's mass h(y)·p^e/μ(S) is multiplied by p^{d-e}/h(y)),
// which is the theorem's uniformity argument.
func (pr *Projection) Sample() (linalg.Vector, error) {
	if err := pr.calibrate(); err != nil {
		return nil, err
	}
	// Per-round acceptance is at least ε/d³ after rounding (the paper's
	// bound for single-coordinate cylinders); the budget uses the
	// measured-scale equivalent.
	d := pr.poly.Dim()
	perRound := pr.opts.params().Eps / math.Pow(float64(d), 3)
	if perRound < 1e-4 {
		perRound = 1e-4
	}
	rounds := pr.opts.maxRounds(perRound)
	for k := 0; k < rounds; k++ {
		if err := pr.opts.interrupted(); err != nil {
			return nil, err
		}
		pr.rounds++
		x, err := pr.src.Sample()
		if err != nil {
			continue
		}
		y := pr.grid.Snap(pr.project(x))
		hCells, err := pr.cylinderCells(y)
		if err != nil {
			return nil, err
		}
		if hCells <= 0 {
			continue // snapped out of the body
		}
		p := 1.0
		if hCells > pr.cRef {
			p = pr.cRef / hCells
		}
		if pr.r.Float64() < p {
			pr.accepts++
			return y, nil
		}
	}
	return nil, fmt.Errorf("%w: projection after %d rounds", ErrGeneratorFailed, rounds)
}

// SampleNaive projects a uniform sample of S without the Algorithm 2
// compensation — the distribution of Figure 1, provided for the E7
// experiment that quantifies how non-uniform it is.
func (pr *Projection) SampleNaive() (linalg.Vector, error) {
	x, err := pr.src.Sample()
	if err != nil {
		return nil, err
	}
	return pr.grid.Snap(pr.project(x)), nil
}

// AcceptanceRate reports accepted rounds / rounds.
func (pr *Projection) AcceptanceRate() float64 {
	if pr.rounds == 0 {
		return 0
	}
	return float64(pr.accepts) / float64(pr.rounds)
}

// Volume estimates μ(T) through the importance identity behind
// Algorithm 2: a naive projection lands in cell y with probability
// h(y)·p^e/μ(S), so the weight w(y) = 1/ĥ_cells(y) has expectation
// N_T·p^d/μ(S) and
//
//	μ(T) = N_T · p^e = E[w] · μ̂(S) / p^{d-e}.
//
// Cells thinner than one grid layer are clamped to ĥ = 1 (the paper's
// grid counts are integers ≥ 1), which bounds the weights and costs only
// an O(γ) boundary band. Unlike the rejection path, this estimator needs
// no acceptance normalisation, so it is unbiased for any number of
// eliminated coordinates.
func (pr *Projection) Volume() (float64, error) {
	if pr.volKnown {
		return pr.vol, nil
	}
	volS, err := pr.src.Volume()
	if err != nil {
		return 0, err
	}
	p := pr.opts.params()
	n := geom.ChernoffSampleCount(p.Eps/4, p.Delta)
	if cap := pr.opts.maxPhaseSamples(); n > cap {
		n = cap
	}
	var sumW float64
	got := 0
	for i := 0; i < n; i++ {
		if err := pr.opts.interrupted(); err != nil {
			return 0, err
		}
		x, err := pr.src.Sample()
		if err != nil {
			continue
		}
		y := pr.grid.Snap(pr.project(x))
		hCells, err := pr.cylinderCells(y)
		if err != nil {
			return 0, err
		}
		got++
		if hCells <= 0 {
			continue // snapped off the body: weight 0
		}
		if hCells < 1 {
			hCells = 1
		}
		sumW += 1 / hCells
	}
	if got == 0 || sumW == 0 {
		return 0, fmt.Errorf("%w: projection volume saw no mass", ErrGeneratorFailed)
	}
	k := len(pr.drop)
	pr.vol = (sumW / float64(got)) * volS / math.Pow(pr.grid.Step, float64(k))
	pr.volKnown = true
	return pr.vol, nil
}

// ProjectionBody adapts a projection to a walk.Body via its LP
// membership oracle, so that reconstruction (and even a direct DFK pass)
// can run on T without symbolic elimination.
type ProjectionBody struct{ Pr *Projection }

// Dim returns the projected dimension.
func (pb ProjectionBody) Dim() int { return pb.Pr.Dim() }

// Contains defers to the slice-feasibility oracle.
func (pb ProjectionBody) Contains(y linalg.Vector) bool { return pb.Pr.Contains(y) }

// InnerBall returns a witness ball of T: the projection of S's
// Chebyshev ball.
func (pb ProjectionBody) InnerBall() (linalg.Vector, float64, error) {
	c, r, err := pb.Pr.poly.Chebyshev()
	if err != nil {
		return nil, 0, err
	}
	return pb.Pr.project(c), r, nil
}

// OuterRadius bounds T: the projection of S's bounding box.
func (pb ProjectionBody) OuterRadius() (float64, error) {
	lo, hi, ok := lp.BoundingBox(pb.Pr.poly.A, pb.Pr.poly.B)
	if !ok {
		return 0, ErrNotWellBounded
	}
	var r2 float64
	for _, j := range pb.Pr.keep {
		half := (hi[j] - lo[j]) / 2
		r2 += half * half
	}
	return math.Sqrt(r2) * 2, nil
}

// NewRNGFromSplit derives a child RNG (re-export for packages layered on
// core that should not import internal/rng directly).
func NewRNGFromSplit(r *rng.RNG) *rng.RNG { return r.Split() }
