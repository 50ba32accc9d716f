package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/walk"
)

// Convex is the Dyer–Frieze–Kannan generator and volume estimator for a
// well-bounded convex body given by a membership oracle (the paper's
// fundamental theorem in Section 2). The body is first well-rounded by an
// affine map Q, then a random walk on the γ-grid of Q(K) produces almost
// uniform grid points; a telescoping product of ball-intersection ratios
// estimates the volume.
type Convex struct {
	body    walk.Body
	rounded *rounding.Rounded
	grid    geom.Grid
	opts    Options
	r       *rng.RNG

	walker *walk.Walker
	mixed  bool
	burnIn int
	thin   int

	// volStats accumulates the effort of volume-pass probe walkers,
	// which are separate from the sampling walker (see phaseRatio).
	volStats SampleStats

	// cached volume estimate (Volume is deterministic per generator
	// instance once computed) and its (ε, δ) ledger.
	vol      float64
	volKnown bool
	volAcc   VolumeAccuracy
}

var _ Observable = (*Convex)(nil)

// PreparedConvex is the reusable product of the expensive DFK setup for
// one convex body: the rounding map, the sandwiching witnesses, the
// γ-grid and the walk step budget — everything about the generator that
// does not depend on the sampling seed. Bind attaches a fresh RNG and
// returns a ready generator without repeating the setup; a prepared body
// may be bound many times (the server's sampler cache relies on this).
//
// If the volume estimate was computed at preparation time (see
// PrepareConvexPolytope), every bound generator shares it, so warm
// Volume calls are free.
type PreparedConvex struct {
	body    walk.Body
	rounded *rounding.Rounded
	grid    geom.Grid
	opts    Options
	burnIn  int
	thin    int

	vol      float64
	volKnown bool
	volAcc   VolumeAccuracy
}

// prepareConvex runs the seedable-but-reusable part of NewConvex: the
// witness validation, the rounding pass (which consumes randomness from
// r) and the grid/step-budget derivation. No walker is created.
func prepareConvex(body walk.Body, center linalg.Vector, innerR, outerR float64, r *rng.RNG, opts Options) (*PreparedConvex, error) {
	if err := opts.params().validate(); err != nil {
		return nil, err
	}
	if innerR <= 0 || outerR <= 0 {
		return nil, ErrNotWellBounded
	}
	d := body.Dim()
	ro, err := rounding.Round(body, center, innerR, outerR, r.Split(), rounding.Options{
		Iterations: opts.roundingIterations(),
	})
	if err != nil {
		return nil, fmt.Errorf("core: rounding failed: %w", err)
	}
	p := opts.params()
	// Grid on the rounded body (inner radius 1): step O(γ/d^{3/2}).
	grid := geom.NewGrid(d, geom.StepForGamma(p.Gamma, d, ro.InnerRadius))
	pc := &PreparedConvex{body: body, rounded: ro, grid: grid, opts: opts}
	pc.burnIn, pc.thin = pc.stepBudget()
	return pc, nil
}

// Dim returns the ambient dimension of the prepared body.
func (p *PreparedConvex) Dim() int { return p.body.Dim() }

// VolumeKnown reports whether the preparation included a volume pass.
func (p *PreparedConvex) VolumeKnown() bool { return p.volKnown }

// Bind instantiates a generator over the prepared geometry with its own
// randomness. The cost is one walker initialisation — O(d) — versus the
// rounding + volume passes of a cold NewConvexPolytope call.
func (p *PreparedConvex) Bind(r *rng.RNG) (*Convex, error) {
	return p.BindInterrupt(r, p.opts.Interrupt)
}

// BindInterrupt is Bind with a per-generator interrupt hook: the bound
// generator polls it inside its walk epochs and volume passes, aborting
// with the hook's error. The RNG stream consumed is identical to Bind's,
// so the hook changes only when a walk can stop, never what it produces.
func (p *PreparedConvex) BindInterrupt(r *rng.RNG, interrupt func() error) (*Convex, error) {
	c := &Convex{
		body:     p.body,
		rounded:  p.rounded,
		grid:     p.grid,
		opts:     p.opts,
		r:        r,
		burnIn:   p.burnIn,
		thin:     p.thin,
		vol:      p.vol,
		volKnown: p.volKnown,
		volAcc:   p.volAcc,
	}
	c.opts.Interrupt = interrupt
	if err := c.initWalker(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewConvex builds the DFK machinery for a convex membership oracle with
// explicit well-boundedness witnesses: an inner ball (center, innerR) and
// an enclosing radius outerR.
func NewConvex(body walk.Body, center linalg.Vector, innerR, outerR float64, r *rng.RNG, opts Options) (*Convex, error) {
	pc, err := prepareConvex(body, center, innerR, outerR, r, opts)
	if err != nil {
		return nil, err
	}
	return pc.Bind(r)
}

// PrepareConvexPolytope is the cache-friendly constructor: it pays the
// rounding pass and the telescoping volume estimation once, up front,
// and returns a PreparedConvex whose Bind yields generators that share
// both. The witnesses are derived exactly as in NewConvexPolytope.
func PrepareConvexPolytope(poly *polytope.Polytope, r *rng.RNG, opts Options) (*PreparedConvex, error) {
	return prepareConvexPolytope(poly, r, opts, nil)
}

// prepareConvexPolytope is PrepareConvexPolytope with the volume pass's
// phases spread over fan (nil = one after another); the result is the
// same at any width.
func prepareConvexPolytope(poly *polytope.Polytope, r *rng.RNG, opts Options, fan *Fanout) (*PreparedConvex, error) {
	center, innerR, outer, err := polytopeWitnesses(poly)
	if err != nil {
		return nil, err
	}
	pc, err := prepareConvex(poly, center, innerR, outer, r, opts)
	if err != nil {
		return nil, err
	}
	probe, err := pc.Bind(r)
	if err != nil {
		return nil, err
	}
	v, err := probe.volume(fan)
	if err != nil {
		return nil, fmt.Errorf("core: prepared volume pass: %w", err)
	}
	pc.vol = v
	pc.volKnown = true
	pc.volAcc = probe.volAcc
	return pc, nil
}

// polytopeWitnesses derives well-boundedness witnesses for an H-polytope
// from its Chebyshev ball and an enclosing ball.
func polytopeWitnesses(poly *polytope.Polytope) (center linalg.Vector, innerR, outer float64, err error) {
	center, innerR, err = poly.Chebyshev()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrNotWellBounded, err)
	}
	if innerR <= 1e-12 {
		return nil, 0, 0, fmt.Errorf("%w: zero inner radius (flat polytope)", ErrNotWellBounded)
	}
	bc, outerR, err := poly.EnclosingBall()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrNotWellBounded, err)
	}
	// Enclose from the Chebyshev centre: |c-bc| + R bounds the body.
	return center, innerR, center.Dist(bc) + outerR, nil
}

// NewConvexPolytope builds the DFK machinery for an H-polytope, deriving
// the well-boundedness witnesses from its Chebyshev ball and bounding
// box.
func NewConvexPolytope(poly *polytope.Polytope, r *rng.RNG, opts Options) (*Convex, error) {
	center, innerR, outer, err := polytopeWitnesses(poly)
	if err != nil {
		return nil, err
	}
	return NewConvex(poly, center, innerR, outer, r, opts)
}

func (p *PreparedConvex) stepBudget() (burnIn, thin int) {
	d := p.body.Dim()
	ratio := p.rounded.Ratio()
	if p.opts.WalkSteps > 0 {
		return p.opts.WalkSteps, maxInt(p.opts.WalkSteps/4, 1)
	}
	switch p.opts.Walk {
	case walk.GridWalk:
		diam := int(2*p.rounded.OuterRadius/p.grid.Step) + 1
		burnIn = walk.DefaultGridSteps(d, ratio, diam)
		return burnIn, maxInt(burnIn/8, 64)
	default:
		burnIn = walk.DefaultHitAndRunSteps(d, ratio)
		return burnIn, maxInt(burnIn/4, 8)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (c *Convex) initWalker() error {
	d := c.body.Dim()
	cfg := walk.Config{
		Kind:        c.opts.Walk,
		Grid:        c.grid,
		OuterRadius: c.rounded.OuterRadius,
		Interrupt:   c.opts.Interrupt,
	}
	if cfg.Kind == walk.BallWalk {
		cfg.Delta = c.rounded.InnerRadius / math.Sqrt(float64(d))
	}
	w, err := walk.New(c.rounded.Body, make(linalg.Vector, d), c.r.Split(), cfg)
	if err != nil {
		return fmt.Errorf("core: starting walk: %w", err)
	}
	c.walker = w
	c.mixed = false
	return nil
}

// Dim returns the ambient dimension.
func (c *Convex) Dim() int { return c.body.Dim() }

// Grid returns the γ-grid (in rounded space) the generator walks on.
func (c *Convex) Grid() geom.Grid { return c.grid }

// RoundingMap returns the affine map from original space to rounded
// space, Q in the paper's description of DFK.
func (c *Convex) RoundingMap() *linalg.AffineMap { return c.rounded.Map }

// Contains reports membership in the original body.
func (c *Convex) Contains(x linalg.Vector) bool { return c.body.Contains(x) }

// SampleRounded returns an almost-uniform point of the rounded body
// Q(K); for the grid walk this is a vertex of the γ-grid graph, which is
// the exact object of Definition 2.2.
func (c *Convex) SampleRounded() (linalg.Vector, error) {
	y, err := c.walkEpoch()
	if err != nil {
		return nil, err
	}
	return y.Clone(), nil
}

// walkEpoch runs the next mixing epoch — the burn-in on first use, thin
// steps after — and returns the walker's position buffer (aliased).
func (c *Convex) walkEpoch() (linalg.Vector, error) {
	steps := c.thin
	burning := !c.mixed
	if burning {
		steps = c.burnIn
		c.mixed = true
	}
	pt := c.walker.Run(steps)
	if err := c.walker.Err(); err != nil {
		if burning {
			// The burn-in was aborted mid-epoch: the walker is not mixed,
			// and a later retry on this generator must pay the full
			// burn-in again rather than silently sampling an unmixed
			// chain with thin steps only.
			c.mixed = false
		}
		return nil, err
	}
	return pt, nil
}

// Sample returns an almost-uniform point of the original body: the
// walker's rounded-space position mapped back through Q⁻¹ straight into
// the one vector returned.
func (c *Convex) Sample() (linalg.Vector, error) {
	y, err := c.walkEpoch()
	if err != nil {
		return nil, err
	}
	return c.rounded.Map.InvertInto(make(linalg.Vector, len(y)), y), nil
}

// Volume returns the (ε, δ)-relative volume estimate via the telescoping
// ball-intersection ratios of Dyer–Frieze–Kannan:
//
//	vol(Q(K)) = vol(B(0,1)) · Π_i vol(K_i)/vol(K_{i-1}),
//
// with K_i = Q(K) ∩ B(0, (1+1/d)^i) so each ratio lies in [1/e, 1], each
// estimated by a Chernoff-bounded sampling pass. The original volume is
// recovered through |det Q|.
//
// When Q(K) is a folded H-polytope and the configured walk is not the
// grid walk, each pass walks K_i by hit-and-run along uniform coordinate
// axes (walk.AxisWalker), and the uniform distribution on K_i stays
// stationary. A step draws no direction: it divides each row's slack by
// the drawn axis's entry only for the rows that bound the chord, sorted
// once per walker by the entry's sign, and tests and commits the move in
// one pass over that column. Membership-only bodies and the grid walk
// keep their Walker over the intersection body. The sampling walker
// keeps uniform directions.
func (c *Convex) Volume() (float64, error) { return c.volume(nil) }

// volume is Volume with the telescoping phases spread over fan.
func (c *Convex) volume(fan *Fanout) (float64, error) {
	if c.volKnown {
		return c.vol, nil
	}
	v, err := c.estimateRoundedVolume(fan)
	if err != nil {
		return 0, err
	}
	c.vol = v / c.rounded.Map.DetAbs()
	c.volKnown = true
	return c.vol, nil
}

// estimateRoundedVolume runs the q phases as independent walks: each
// gets an RNG split from c.r up front, in phase order, and the ratios,
// the log-volume and the walk effort are folded back in phase order, so
// the estimate is the same whether fan runs the phases concurrently or
// not.
func (c *Convex) estimateRoundedVolume(fan *Fanout) (float64, error) {
	d := c.body.Dim()
	p := c.opts.params()
	inner := c.rounded.InnerRadius
	outer := c.rounded.OuterRadius
	// Phase radii (1+1/d)^i from inner to outer.
	radii := []float64{inner}
	growth := 1 + 1/float64(d)
	for radii[len(radii)-1] < outer {
		next := radii[len(radii)-1] * growth
		if next >= outer {
			next = outer
		}
		radii = append(radii, next)
	}
	q := len(radii) - 1
	if q == 0 {
		// The body is the inner ball (up to rounding): closed form, no
		// sampling error at all.
		c.volAcc = VolumeAccuracy{
			RequestedEps: p.Eps, RequestedDelta: p.Delta, AchievedDelta: p.Delta,
		}
		return volBallClamped(d, inner), nil
	}
	// Per-phase sample count from Hoeffding at additive error
	// a = ε/(2e·q), capped for practicality (see Options.MaxPhaseSamples).
	n := geom.ChernoffSampleCount(p.Eps/(2*math.E*float64(q)), p.Delta/float64(q))
	capped := false
	if cap := c.opts.maxPhaseSamples(); n > cap {
		n = cap
		capped = true
	}
	// Ledger: n samples per phase deliver additive half-width a_ach at
	// per-phase confidence 1−δ/q; the telescoping product turns q such
	// phases into relative error ≈ 2e·q·a_ach at total confidence 1−δ.
	c.volAcc = VolumeAccuracy{
		RequestedEps:   p.Eps,
		RequestedDelta: p.Delta,
		AchievedEps:    2 * math.E * float64(q) * achievedHalfWidth(n, p.Delta/float64(q)),
		AchievedDelta:  p.Delta,
		Capped:         capped,
		Probes:         int64(q) * int64(n),
	}
	rs := make([]*rng.RNG, q)
	for i := range rs {
		rs[i] = c.r.Split()
	}
	ratios := make([]float64, q)
	stats := make([]walk.Stats, q)
	failed, err := fan.each(q, func(i int) error {
		var err error
		ratios[i], stats[i], err = c.phaseRatio(radii[i], radii[i+1], n, rs[i])
		return err
	})
	// A failed phase's probe effort still belongs to the ledger; the
	// phases after it would not have run in sequence.
	for i := 0; i < q && i <= failed; i++ {
		c.volStats.mergeWalk(stats[i])
	}
	if err != nil {
		return 0, err
	}
	logVol := math.Log(volBallClamped(d, inner))
	for _, ratio := range ratios {
		logVol -= math.Log(ratio)
	}
	return math.Exp(logVol), nil
}

// volBallClamped is the unit-ball-volume helper (radius r, dimension d).
func volBallClamped(d int, r float64) float64 {
	lg, _ := math.Lgamma(float64(d)/2 + 1)
	return math.Exp(float64(d)/2*math.Log(math.Pi) + float64(d)*math.Log(r) - lg)
}

// phaseRatio estimates vol(K ∩ B(0, rSmall)) / vol(K ∩ B(0, rBig)) by
// sampling the larger body with randomness from r and counting hits in
// the smaller ball. It only reads c, so phases may run concurrently; it
// returns its probe walker's effort, even when the phase aborts.
func (c *Convex) phaseRatio(rSmall, rBig float64, n int, r *rng.RNG) (float64, walk.Stats, error) {
	w, err := c.phaseWalker(rBig, r)
	if err != nil {
		return 0, walk.Stats{}, fmt.Errorf("core: phase walk: %w", err)
	}
	burn, thin := c.burnIn, c.thin
	w.Run(burn)
	if err := w.Err(); err != nil {
		return 0, w.Stats(), err
	}
	hits := 0
	r2 := rSmall * rSmall
	for i := 0; i < n; i++ {
		pt := w.Run(thin)
		if err := w.Err(); err != nil {
			return 0, w.Stats(), err
		}
		var norm2 float64
		for _, v := range pt {
			norm2 += v * v
		}
		if norm2 <= r2 {
			hits++
		}
	}
	if hits == 0 {
		// The ratio is at least (rSmall/rBig)^d >= 1/e by construction;
		// zero hits means the walk under-mixed. Fall back to the
		// analytic lower bound rather than returning a zero volume.
		return math.Pow(rSmall/rBig, float64(c.body.Dim())), w.Stats(), nil
	}
	return float64(hits) / float64(n), w.Stats(), nil
}

// phaseWalk is the walk a volume phase samples K ∩ B(0, r) with.
type phaseWalk interface {
	Run(n int) linalg.Vector
	Err() error
	Stats() walk.Stats
}

// phaseWalker starts a phase's walk over K ∩ B(0, rBig) at the origin:
// the coordinate kernel on a folded H-polytope (see Volume), otherwise
// a Walker over the intersection body, the only walk that serves the
// grid walk and membership-only bodies.
func (c *Convex) phaseWalker(rBig float64, r *rng.RNG) (phaseWalk, error) {
	start := make(linalg.Vector, c.body.Dim())
	poly, folded := c.rounded.Body.(*polytope.Polytope)
	if folded && c.opts.Walk != walk.GridWalk {
		return walk.NewAxisWalker(poly, rBig, start, r, c.opts.Interrupt)
	}
	big := walk.IntersectionBody{Bodies: []walk.Body{
		c.rounded.Body,
		walk.BallBody{Center: make(linalg.Vector, len(start)), Radius: rBig},
	}}
	cfg := walk.Config{Kind: walk.HitAndRun, OuterRadius: rBig, Interrupt: c.opts.Interrupt}
	if c.opts.Walk == walk.GridWalk {
		// Stay faithful to the configured walk for the phase sampling
		// when explicitly requested; a finer grid keeps thin shells
		// reachable.
		cfg = walk.Config{Kind: walk.GridWalk, Grid: c.grid, OuterRadius: rBig, Interrupt: c.opts.Interrupt}
	}
	return walk.New(big, start, r, cfg)
}

// AcceptanceRate exposes the walker's diagnostic acceptance rate.
func (c *Convex) AcceptanceRate() float64 { return c.walker.AcceptanceRate() }

// SandwichRatio exposes the rounded body's R/r sandwiching ratio — the
// quantity the well-rounding step exists to control.
func (c *Convex) SandwichRatio() float64 { return c.rounded.Ratio() }
