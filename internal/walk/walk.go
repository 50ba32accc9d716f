// Package walk implements the random walks that drive the paper's
// generators: the Dyer–Frieze–Kannan lazy grid walk (the walk of the
// theorem quoted in Section 2), plus the ball walk and hit-and-run as
// engineered alternatives with much faster practical mixing.
//
// All walks operate on a membership oracle (a Body), matching the
// paper's §5 observation that only a membership oracle is needed — which
// is why polynomial-constraint convex sets sample through the identical
// code path.
//
// Ownership: a Body is shared and immutable. One prepared body serves
// every walker over it, on any number of goroutines, and nothing writes
// to it after construction. Every mutable buffer belongs to exactly one
// Walker: New binds the body into a private form that owns the scratch
// its membership and chord arithmetic needs (pre-images through a
// MappedBody's map, a ball chord's offset, a bisection probe), so a step
// allocates nothing and no two walkers write the same memory. A Walker
// itself is not safe for concurrent use.
//
// The bound form of an H-polytope (alone, or intersected with other
// bodies such as the volume phases' balls) also owns the polytope's row
// values A·x at the walker's position. A hit-and-run step over it is one
// m×d pass: it computes A·dir once, takes the chord from the stored
// slack b − A·x, checks the proposal as A·x + t·A·dir <= b + Eps in O(m)
// and commits that same update on acceptance. Every Run starts by
// recomputing A·x from the position, so rounding drift cannot build up.
// Grid and ball walks test their proposals with Contains.
//
// Direction laws. A Walker's hit-and-run draws its direction uniformly
// on the sphere: that is the only law a membership-only body can use,
// and the samplers' draws stay on it. The grid walk moves along the axes
// of its γ-grid, as the paper's walk does. AxisWalker, which runs the
// volume phases over folded H-polytopes, draws a uniform coordinate axis
// e_j instead: the rows' rates along e_j are column j of A and a ball's
// chord along it is closed form, so a step needs no direction draw and
// no m×d product. Both laws draw from the body's full conditional along
// the chosen line, so both leave the uniform distribution stationary.
//
// Current and Run return the walker's position buffer, not a copy. It
// holds the position until the next accepted step; after that the walker
// reuses it for its proposals, so callers must clone it to keep it
// (Sample does).
package walk

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// Body is a membership oracle for a (convex) set.
type Body interface {
	Dim() int
	Contains(x linalg.Vector) bool
}

// ChordBody is a Body that can intersect lines with itself exactly.
// H-polytopes implement it; membership-only oracles fall back to a
// bisection chord.
type ChordBody interface {
	Body
	Chord(x, dir linalg.Vector) (tmin, tmax float64, ok bool)
}

// ChordCapable lets wrapper bodies (MappedBody, IntersectionBody) report
// whether their Chord method is actually backed by every underlying
// body. A wrapper always *has* a Chord method, so the interface check
// alone would silently route membership-only oracles onto the exact
// path, where every chord fails and the walk never moves.
type ChordCapable interface {
	ChordBody
	ChordSupported() bool
}

// ChordSupport reports whether b can produce exact chords.
func ChordSupport(b Body) bool {
	if cc, ok := b.(ChordCapable); ok {
		return cc.ChordSupported()
	}
	_, ok := b.(ChordBody)
	return ok
}

// ErrStartOutside is returned when a walk is started at a point outside
// the body.
var ErrStartOutside = errors.New("walk: start point outside the body")

// Kind selects a walk implementation.
type Kind int

const (
	// GridWalk is the paper's lazy walk on the γ-grid graph induced on
	// the body: stay with probability 1/2, otherwise move to a uniform
	// axis neighbour if it is inside. Its stationary distribution is
	// uniform on the connected grid graph.
	GridWalk Kind = iota
	// BallWalk proposes a uniform point in a δ-ball and accepts if it is
	// inside.
	BallWalk
	// HitAndRun picks a uniform chord direction and a uniform point on
	// the chord; it mixes fastest in practice.
	HitAndRun
)

// String returns the walk name.
func (k Kind) String() string {
	switch k {
	case GridWalk:
		return "grid"
	case BallWalk:
		return "ball"
	default:
		return "hit-and-run"
	}
}

// Walker performs random-walk steps over a body.
type Walker struct {
	kind Kind
	// own is the walker's private binding of the body (see bind); exact
	// reports exact chord support, checked once in New.
	own   tracker
	exact bool
	dim   int
	grid  geom.Grid // grid walk only
	// delta is the ball-walk proposal radius.
	delta float64
	// outerRadius bounds the chord search for membership-only bodies.
	outerRadius float64
	// cur is the position and next the proposal buffer: an accepted
	// proposal swaps them, so no step clones a point.
	cur, next linalg.Vector
	r         *rng.RNG
	dirBuf    linalg.Vector
	// probe is the bisection chord's scratch point.
	probe linalg.Vector
	// interrupt aborts long runs early (see Config.Interrupt); err holds
	// the abort cause until read through Err.
	interrupt func() error
	err       error
	// Steps executed and proposals accepted, for diagnostics.
	steps, accepted int
	// oracle counts membership/chord oracle invocations (a bisection
	// chord, though it probes Contains ~120 times internally, counts as
	// one invocation — the unit a planner prices is "oracle query", and
	// the bisection constant is fixed); polls counts interrupt polls.
	oracle, polls int
}

// Stats is a snapshot of a walker's accumulated effort counters.
type Stats struct {
	// Steps executed and proposals accepted.
	Steps, Accepted int
	// OracleCalls is the number of membership/chord oracle invocations.
	OracleCalls int
	// InterruptPolls is the number of interrupt-hook polls during Runs.
	InterruptPolls int
}

// Stats returns the walker's effort counters.
func (w *Walker) Stats() Stats {
	return Stats{Steps: w.steps, Accepted: w.accepted, OracleCalls: w.oracle, InterruptPolls: w.polls}
}

// Config carries walk construction parameters.
type Config struct {
	Kind Kind
	// Grid is required for GridWalk (the γ-grid of Definition 2.2).
	Grid geom.Grid
	// Delta is the BallWalk proposal radius; default r/√d is chosen by
	// the caller.
	Delta float64
	// OuterRadius bounds bisection chords for membership-only bodies
	// under HitAndRun. Required when the body is not a ChordBody.
	OuterRadius float64
	// Interrupt, when non-nil, is polled during multi-step runs; a
	// non-nil return aborts the run early (the walker stays at its last
	// position and reports the cause through Err). Callers wire a
	// context's Err here to make mixing runs cancellable mid-epoch.
	Interrupt func() error
}

// New returns a walker positioned at start. The walker binds body into
// its own per-walker form (see the package doc); body itself is only
// read.
func New(body Body, start linalg.Vector, r *rng.RNG, cfg Config) (*Walker, error) {
	cur := start.Clone()
	if cfg.Kind == GridWalk {
		cur = cfg.Grid.Snap(cur)
	}
	exact := ChordSupport(body)
	own := bind(body)
	if !exact {
		// Bisection chords track nothing along the line: proposals are
		// tested by membership alone.
		own = stateless{own}
	}
	if !own.Contains(cur) {
		// A snapped start can fall out of thin bodies; walk back toward
		// the original point is not possible without membership, so fail
		// loudly — callers pick a finer grid.
		return nil, fmt.Errorf("%w (kind=%s)", ErrStartOutside, cfg.Kind)
	}
	if cfg.Kind == BallWalk && cfg.Delta <= 0 {
		return nil, errors.New("walk: BallWalk requires a positive Delta")
	}
	if cfg.Kind == HitAndRun && !exact && cfg.OuterRadius <= 0 {
		return nil, errors.New("walk: HitAndRun on a membership-only body requires OuterRadius")
	}
	if cfg.Kind == HitAndRun {
		own.sync(cur)
	}
	d := body.Dim()
	return &Walker{
		kind:        cfg.Kind,
		own:         own,
		exact:       exact,
		dim:         d,
		grid:        cfg.Grid,
		delta:       cfg.Delta,
		outerRadius: cfg.OuterRadius,
		cur:         cur,
		next:        make(linalg.Vector, len(cur)),
		r:           r,
		dirBuf:      make(linalg.Vector, d),
		probe:       make(linalg.Vector, len(cur)),
		interrupt:   cfg.Interrupt,
	}, nil
}

// interruptStride bounds how many steps run between interrupt polls, so
// cancellation latency is a tiny fraction of any mixing epoch while the
// poll stays off the per-step fast path.
const interruptStride = 32

// Err returns the interrupt error that aborted the last Run, if any.
func (w *Walker) Err() error { return w.err }

// Current returns the walker's position buffer (aliased: the walker
// reuses it after its next accepted step; clone to keep).
func (w *Walker) Current() linalg.Vector { return w.cur }

// AcceptanceRate returns accepted proposals / steps (1.0 for hit-and-run).
func (w *Walker) AcceptanceRate() float64 {
	if w.steps == 0 {
		return 0
	}
	return float64(w.accepted) / float64(w.steps)
}

// Step advances the walk by one step. Every walk kind proposes into the
// walker's next buffer and swaps it with cur on acceptance, so a step
// allocates nothing.
func (w *Walker) Step() {
	w.steps++
	switch w.kind {
	case GridWalk:
		// Lazy: stay with probability 1/2 (guarantees aperiodicity, as in
		// the DFK analysis).
		if w.r.Bool() {
			return
		}
		j := w.r.Intn(w.dim)
		sign := 1
		if w.r.Bool() {
			sign = -1
		}
		// The axis neighbour of Grid.Neighbor, built in place.
		copy(w.next, w.cur)
		w.next[j] += float64(sign) * w.grid.Step
		w.oracle++
		if w.own.Contains(w.next) {
			w.accept()
		}
	case BallWalk:
		copy(w.next, w.cur)
		w.r.InBall(w.dirBuf)
		w.next.AddScaled(w.delta, w.dirBuf)
		w.oracle++
		if w.own.Contains(w.next) {
			w.accept()
		}
	case HitAndRun:
		w.r.OnSphere(w.dirBuf)
		w.oracle++
		tmin, tmax, ok := w.chord(w.cur, w.dirBuf)
		if !ok || tmax <= tmin || math.IsInf(tmin, -1) || math.IsInf(tmax, 1) {
			return
		}
		t := w.r.Uniform(tmin, tmax)
		copy(w.next, w.cur)
		w.next.AddScaled(t, w.dirBuf)
		// Guard against numerically escaping the body at chord endpoints.
		w.oracle++
		if w.own.at(t, w.next) {
			w.own.move(t)
			w.accept()
		}
	}
}

// accept makes the proposal in next the current position.
func (w *Walker) accept() {
	w.cur, w.next = w.next, w.cur
	w.accepted++
}

// Run advances n steps and returns the final position (aliased, as for
// Current). When the walker has an Interrupt hook, it is polled every
// interruptStride steps; a non-nil return aborts the run and is
// reported through Err. The hook check is hoisted out of the loop so
// uncancellable walkers pay nothing per step.
func (w *Walker) Run(n int) linalg.Vector {
	if w.kind == HitAndRun {
		w.own.sync(w.cur)
	}
	if w.interrupt == nil {
		//cdbcheck:ignore interruptpoll -- nil-hook fast path: the poll is hoisted into the branch guard above
		for i := 0; i < n; i++ {
			w.Step()
		}
		return w.cur
	}
	w.err = nil
	for i := 0; i < n; i++ {
		if i%interruptStride == 0 {
			w.polls++
			if err := w.interrupt(); err != nil {
				w.err = err
				return w.cur
			}
		}
		w.Step()
	}
	return w.cur
}

// Sample runs n mixing steps and returns a cloned point.
func (w *Walker) Sample(n int) linalg.Vector {
	return w.Run(n).Clone()
}

// chord returns the line-body intersection parameters, exact for
// chord-supporting bodies and by bisection otherwise.
func (w *Walker) chord(x, dir linalg.Vector) (float64, float64, bool) {
	if w.exact {
		return w.own.line(x, dir)
	}
	// Bisection within [-2R, 2R]: the body lies in a ball of radius R
	// around some centre at distance <= R from x, so 2R bounds any chord.
	span := 2 * w.outerRadius
	lo := w.bisectBoundary(x, dir, -span)
	hi := w.bisectBoundary(x, dir, span)
	return lo, hi, hi > lo
}

// bisectBoundary finds the boundary crossing between t=0 (inside) and
// t=far (assumed outside or at the limit) to 1e-9 relative precision,
// probing membership at x + t·dir in the walker's probe buffer.
func (w *Walker) bisectBoundary(x, dir linalg.Vector, far float64) float64 {
	inside := 0.0
	outside := far
	if w.probeAt(x, dir, far) {
		return far // body extends past the sweep: clamp
	}
	for i := 0; i < 60; i++ {
		mid := (inside + outside) / 2
		if w.probeAt(x, dir, mid) {
			inside = mid
		} else {
			outside = mid
		}
	}
	return inside
}

// probeAt reports membership of x + t·dir.
func (w *Walker) probeAt(x, dir linalg.Vector, t float64) bool {
	copy(w.probe, x)
	w.probe.AddScaled(t, dir)
	return w.own.Contains(w.probe)
}

// DefaultGridSteps returns the engineering default step budget for the
// grid walk in dimension d with sandwiching ratio ratio = R/r. The
// theoretical DFK bound O(d^19/(εγ) ln 1/δ) is astronomically
// conservative; empirically O(d² ratio²) · grid-diameter steps mix well
// on the well-rounded bodies the sampler produces (validated by the E2
// experiment).
func DefaultGridSteps(d int, ratio float64, gridDiameter int) int {
	if ratio < 1 {
		ratio = 1
	}
	steps := float64(d*d) * ratio * ratio * float64(gridDiameter)
	if steps < 2000 {
		steps = 2000
	}
	if steps > 2e6 {
		steps = 2e6
	}
	return int(steps)
}

// DefaultHitAndRunSteps returns the engineering default step budget for
// hit-and-run: O(d²) steps with a floor, scaled by the sandwiching
// ratio.
func DefaultHitAndRunSteps(d int, ratio float64) int {
	if ratio < 1 {
		ratio = 1
	}
	steps := 12*d*d + int(10*ratio*float64(d))
	if steps < 60 {
		steps = 60
	}
	return steps
}

// boundBody is a walker's private binding of a shared Body: the body's
// own membership and chord arithmetic, run over scratch buffers that
// belong to the binding alone. Chord is only consulted when the bound
// body has exact chord support (ChordSupport).
type boundBody interface {
	Contains(x linalg.Vector) bool
	Chord(x, dir linalg.Vector) (tmin, tmax float64, ok bool)
}

// tracker is a bound body seen from a hit-and-run walker, which moves
// along chords through its own position: sync(x) takes the position,
// line(x, dir) returns the chord through it along dir, at(t, y) tests the
// proposal y = x + t·dir on that chord, and move(t) commits it. A bound
// H-polytope carries its row values through these calls (boundRows);
// every other body answers them with its stateless Chord and Contains.
type tracker interface {
	boundBody
	sync(x linalg.Vector)
	line(x, dir linalg.Vector) (tmin, tmax float64, ok bool)
	at(t float64, y linalg.Vector) bool
	move(t float64)
}

// bind returns b's per-walker form. The wrappers that need scratch —
// MappedBody, IntersectionBody (through its members) and BallBody — get
// buffers of their own, an H-polytope gets its row values, any other
// chord body is used as it is, and a membership-only body reports no
// chords.
func bind(b Body) tracker {
	switch b := b.(type) {
	case *polytope.Polytope:
		m := b.Rows()
		buf := make([]float64, 2*m)
		return &boundRows{Polytope: b, ax: buf[:m:m], adir: buf[m:]}
	case MappedBody:
		return stateless{b.bind()}
	case IntersectionBody:
		return b.bind()
	case BallBody:
		return stateless{b.bind()}
	case ChordBody:
		return stateless{b}
	default:
		return stateless{membershipOnly{b}}
	}
}

// stateless binds a body that carries nothing along a chord.
type stateless struct{ boundBody }

func (stateless) sync(linalg.Vector) {}

func (s stateless) line(x, dir linalg.Vector) (float64, float64, bool) { return s.Chord(x, dir) }

func (s stateless) at(_ float64, y linalg.Vector) bool { return s.Contains(y) }

func (stateless) move(float64) {}

// membershipOnly binds a body without chords.
type membershipOnly struct{ Body }

func (membershipOnly) Chord(x, dir linalg.Vector) (float64, float64, bool) { return 0, 0, false }

// boundRows is an H-polytope {x : A x <= b} bound to one walker, with
// each row's value A·x at the walker's position (ax) and along the
// current chord's direction (adir).
type boundRows struct {
	*polytope.Polytope
	ax, adir []float64
}

func (o *boundRows) sync(x linalg.Vector) {
	for i, row := range o.A {
		o.ax[i] = row.Dot(x)
	}
}

// line clips the chord by every row from its stored slack, computing
// and keeping A·dir on the way.
func (o *boundRows) line(_, dir linalg.Vector) (tmin, tmax float64, ok bool) {
	tmin, tmax = math.Inf(-1), math.Inf(1)
	for i, row := range o.A {
		au := row.Dot(dir)
		o.adir[i] = au
		if tmin, tmax, ok = polytope.ClipChord(tmin, tmax, o.B[i]-o.ax[i], au); !ok {
			return 0, 0, false
		}
	}
	if tmax < tmin {
		return 0, 0, false
	}
	return tmin, tmax, true
}

func (o *boundRows) at(t float64, _ linalg.Vector) bool {
	for i, v := range o.ax {
		if v+t*o.adir[i] > o.B[i]+num.Eps {
			return false
		}
	}
	return true
}

func (o *boundRows) move(t float64) {
	for i, v := range o.adir {
		o.ax[i] += t * v
	}
}

// BallBody is a Euclidean ball membership oracle (a convenience Body
// used by tests and the telescoping volume estimator).
type BallBody struct {
	Center linalg.Vector
	Radius float64
}

// Dim returns the ambient dimension.
func (b BallBody) Dim() int { return len(b.Center) }

// Contains reports membership.
func (b BallBody) Contains(x linalg.Vector) bool {
	return x.Dist(b.Center) <= b.Radius
}

// Chord intersects a line with the ball exactly.
func (b BallBody) Chord(x, dir linalg.Vector) (float64, float64, bool) {
	return b.bind().Chord(x, dir)
}

func (b BallBody) bind() *boundBall {
	return &boundBall{BallBody: b, diff: make(linalg.Vector, len(b.Center))}
}

// boundBall is a BallBody with its own x − centre buffer.
type boundBall struct {
	BallBody
	diff linalg.Vector
}

func (o *boundBall) Chord(x, dir linalg.Vector) (float64, float64, bool) {
	// |x + t·dir - c|² = R²; dir is unit for walk use, but handle any norm.
	for i, c := range o.Center {
		o.diff[i] = x[i] - c
	}
	a := dir.Dot(dir)
	bb := 2 * o.diff.Dot(dir)
	c := o.diff.Dot(o.diff) - o.Radius*o.Radius
	disc := bb*bb - 4*a*c
	if disc < 0 || a == 0 {
		return 0, 0, false
	}
	s := math.Sqrt(disc)
	return (-bb - s) / (2 * a), (-bb + s) / (2 * a), true
}

// IntersectionBody is the membership intersection of bodies (used for
// the telescoping estimator's K ∩ B(0, r_i) sequence).
type IntersectionBody struct {
	Bodies []Body
}

// Dim returns the common dimension.
func (ib IntersectionBody) Dim() int {
	if len(ib.Bodies) == 0 {
		return 0
	}
	return ib.Bodies[0].Dim()
}

// Contains reports membership in every body.
func (ib IntersectionBody) Contains(x linalg.Vector) bool {
	return ib.bind().Contains(x)
}

// ChordSupported reports whether every member can produce exact chords.
func (ib IntersectionBody) ChordSupported() bool {
	for _, b := range ib.Bodies {
		if !ChordSupport(b) {
			return false
		}
	}
	return true
}

// Chord intersects chords when every member supports them.
func (ib IntersectionBody) Chord(x, dir linalg.Vector) (float64, float64, bool) {
	return ib.bind().Chord(x, dir)
}

func (ib IntersectionBody) bind() boundIntersection {
	members := make(boundIntersection, len(ib.Bodies))
	for i, b := range ib.Bodies {
		members[i] = bind(b)
	}
	return members
}

// boundIntersection is an IntersectionBody over bound members; a
// hit-and-run walker moves every member along its chords.
type boundIntersection []tracker

func (bi boundIntersection) Contains(x linalg.Vector) bool {
	for _, b := range bi {
		if !b.Contains(x) {
			return false
		}
	}
	return true
}

func (bi boundIntersection) Chord(x, dir linalg.Vector) (float64, float64, bool) {
	tmin, tmax := math.Inf(-1), math.Inf(1)
	for _, b := range bi {
		lo, hi, ok := b.Chord(x, dir)
		if !ok {
			return 0, 0, false
		}
		tmin = math.Max(tmin, lo)
		tmax = math.Min(tmax, hi)
	}
	if tmax < tmin {
		return 0, 0, false
	}
	return tmin, tmax, true
}

func (bi boundIntersection) sync(x linalg.Vector) {
	for _, b := range bi {
		b.sync(x)
	}
}

func (bi boundIntersection) line(x, dir linalg.Vector) (float64, float64, bool) {
	tmin, tmax := math.Inf(-1), math.Inf(1)
	for _, b := range bi {
		lo, hi, ok := b.line(x, dir)
		if !ok {
			return 0, 0, false
		}
		tmin, tmax = max(tmin, lo), min(tmax, hi)
	}
	if tmax < tmin {
		return 0, 0, false
	}
	return tmin, tmax, true
}

func (bi boundIntersection) at(t float64, y linalg.Vector) bool {
	for _, b := range bi {
		if !b.at(t, y) {
			return false
		}
	}
	return true
}

func (bi boundIntersection) move(t float64) {
	for _, b := range bi {
		b.move(t)
	}
}

// MappedBody is the image of a Body under an invertible affine map:
// y ∈ MappedBody iff map⁻¹(y) ∈ Orig. Chords transfer exactly because
// affine maps preserve line parametrisation.
type MappedBody struct {
	Orig Body
	Map  *linalg.AffineMap
}

// Dim returns the ambient dimension.
func (m MappedBody) Dim() int { return m.Orig.Dim() }

// Contains reports membership of the pre-image.
func (m MappedBody) Contains(y linalg.Vector) bool {
	return m.bind().Contains(y)
}

// ChordSupported reports whether the wrapped body supports chords.
func (m MappedBody) ChordSupported() bool { return ChordSupport(m.Orig) }

// Chord maps the line into the original space: x + t·dir pre-images to
// M⁻¹(x - T) + t·(M⁻¹ dir), so the t interval is unchanged. The
// direction goes through M⁻¹ alone, so its pre-image keeps full
// precision however far the image sits from the origin.
func (m MappedBody) Chord(x, dir linalg.Vector) (float64, float64, bool) {
	return m.bind().Chord(x, dir)
}

func (m MappedBody) bind() *boundMapped {
	d := m.Orig.Dim()
	buf := make(linalg.Vector, 2*d)
	return &boundMapped{orig: bind(m.Orig), m: m.Map, x0: buf[:d:d], d0: buf[d:]}
}

// boundMapped is a MappedBody over a bound original, with its own
// pre-image buffers.
type boundMapped struct {
	orig boundBody
	m    *linalg.AffineMap
	// x0 and d0 receive the pre-images of a point and a direction.
	x0, d0 linalg.Vector
}

func (o *boundMapped) Contains(y linalg.Vector) bool {
	return o.orig.Contains(o.m.InvertInto(o.x0, y))
}

func (o *boundMapped) Chord(x, dir linalg.Vector) (float64, float64, bool) {
	return o.orig.Chord(o.m.InvertInto(o.x0, x), o.m.InvertLinearInto(o.d0, dir))
}
