package walk

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// AxisWalker is hit-and-run along coordinate directions over an
// H-polytope {x : A x <= b} intersected with the centred ball B(0, R).
// A step draws an axis e_j uniformly and moves to a uniform point of the
// chord through the position along it. Along e_j each row's rate A·e_j
// is column j of A, and the ball's chord is closed form, so a step needs
// no direction draw and no m×d product (Emiris and Fisikopoulos, SoCG
// 2014). The walker sorts each column's rows once by the sign of their
// rate: rows with a positive rate bound t from above, rows with a
// negative rate from below, and rows parallel to the axis only refuse a
// step whose slack is already negative. A step then clips the chord with
// one division per non-parallel row, folded into independent min and max
// accumulators, and tests the proposal in one pass over column j that
// writes the moved row values into a scratch buffer, which becomes the
// tracked one when the step is accepted.
//
// The walker carries the row values A·x and |x|² along its moves, and
// every Run recomputes both from the position first, so rounding drift
// cannot build up. Each step draws from the body's full conditional
// along one axis, which leaves the uniform distribution on the body
// stationary, as hit-and-run along uniform directions does.
//
// Like a Walker, an AxisWalker only reads its polytope, is not safe for
// concurrent use, and returns its position buffer from Current and Run.
type AxisWalker struct {
	// cols holds A column by column: cols[j*m+i] = A[i][j].
	cols []float64
	// axes[j] is column j with its rows sorted by the sign of A[i][j].
	axes []axisColumn
	b    []float64
	m    int
	// r2 is the ball's squared radius.
	r2 float64
	// x is the position, ax its row values A·x and norm2 its |x|². next
	// receives a proposal's row values and swaps with ax on acceptance.
	x     linalg.Vector
	ax    []float64
	next  []float64
	norm2 float64
	r     *rng.RNG
	// interrupt and err work as a Walker's (see Config.Interrupt).
	interrupt func() error
	err       error
	// Effort counters, kept as a Walker keeps them.
	steps, accepted, oracle, polls int
}

// axisColumn is column j of A seen from a step along e_j: the chord
// [tmin, tmax] is bounded above by slack/rate over upper, below by
// slack/rate over lower, and a parallel row whose slack b[i] − A[i]·x is
// below −num.Eps refuses the step, as polytope.ClipChord decides.
type axisColumn struct {
	a            []float64 // A[i][j] in row order
	upper, lower []axisRow // A[i][j] > num.Eps and A[i][j] < −num.Eps
	parallel     []int     // the other rows
}

// axisRow is row i's rate A[i][j] along an axis.
type axisRow struct {
	i    int
	rate float64
}

// NewAxisWalker returns a coordinate hit-and-run walker over
// poly ∩ B(0, radius), positioned at a copy of start. An infinite radius
// walks the polytope alone. interrupt, when non-nil, is polled during
// Runs as Config.Interrupt is.
func NewAxisWalker(poly *polytope.Polytope, radius float64, start linalg.Vector, r *rng.RNG, interrupt func() error) (*AxisWalker, error) {
	d, m := poly.Dim(), poly.Rows()
	if d == 0 || len(start) != d {
		return nil, fmt.Errorf("walk: axis walker over a %d-D polytope from a %d-D start", d, len(start))
	}
	if !(radius > 0) {
		return nil, errors.New("walk: axis walker needs a positive ball radius")
	}
	w := &AxisWalker{
		cols:      make([]float64, m*d),
		axes:      make([]axisColumn, d),
		b:         poly.B,
		m:         m,
		r2:        radius * radius,
		x:         start.Clone(),
		ax:        make([]float64, m),
		next:      make([]float64, m),
		r:         r,
		interrupt: interrupt,
	}
	for i, row := range poly.A {
		for j, a := range row {
			w.cols[j*m+i] = a
		}
	}
	for j := range w.axes {
		c := &w.axes[j]
		c.a = w.cols[j*m : (j+1)*m]
		for i, a := range c.a {
			switch {
			case a > num.Eps:
				c.upper = append(c.upper, axisRow{i, a})
			case a < -num.Eps:
				c.lower = append(c.lower, axisRow{i, a})
			default:
				c.parallel = append(c.parallel, i)
			}
		}
	}
	w.sync()
	if !poly.Contains(w.x) || w.norm2 > w.r2 {
		return nil, fmt.Errorf("%w (kind=axis hit-and-run)", ErrStartOutside)
	}
	return w, nil
}

// sync recomputes the row values and |x|² from the position.
func (w *AxisWalker) sync() {
	for i := range w.ax {
		var v float64
		for j, xj := range w.x {
			v += w.cols[j*w.m+i] * xj
		}
		w.ax[i] = v
	}
	w.norm2 = w.x.Dot(w.x)
}

// Step advances the walk by one step along a uniform coordinate axis.
// Like a hit-and-run Walker's step it costs one oracle call for the
// chord and one for the proposal's test, and it allocates nothing.
func (w *AxisWalker) Step() {
	w.steps++
	j := w.r.Intn(len(w.x))
	c := &w.axes[j]
	b, ax := w.b, w.ax
	w.oracle++
	for _, i := range c.parallel {
		if !(b[i]-ax[i] >= -num.Eps) {
			return
		}
	}
	// min and max are exact, so folding the bounds in any order gives the
	// chord a row-by-row polytope.ClipChord gives.
	tmax := math.Inf(1)
	for _, u := range c.upper {
		tmax = min(tmax, (b[u.i]-ax[u.i])/u.rate)
	}
	tmin := math.Inf(-1)
	for _, l := range c.lower {
		tmin = max(tmin, (b[l.i]-ax[l.i])/l.rate)
	}
	// |x + t·e_j|² = |x|² + 2t·x_j + t² <= R² for t in −x_j ± √(x_j² − |x|² + R²).
	xj := w.x[j]
	disc := xj*xj - w.norm2 + w.r2
	if disc < 0 {
		return
	}
	s := math.Sqrt(disc)
	tmin, tmax = max(tmin, -xj-s), min(tmax, -xj+s)
	if tmax <= tmin || math.IsInf(tmin, -1) || math.IsInf(tmax, 1) {
		return
	}
	t := w.r.Uniform(tmin, tmax)
	// Guard against numerically escaping the body at chord endpoints.
	w.oracle++
	next := w.next[:len(c.a)]
	for i, a := range c.a {
		v := ax[i] + t*a
		if v > b[i]+num.Eps {
			return
		}
		next[i] = v
	}
	norm2 := w.norm2 + t*(2*xj+t)
	if norm2 > w.r2 {
		return
	}
	w.ax, w.next = next, ax
	w.x[j] = xj + t
	w.norm2 = norm2
	w.accepted++
}

// Run recomputes the tracked values from the position, advances n steps
// and returns the position (aliased, as for Current). The interrupt hook,
// if any, is polled every interruptStride steps; a non-nil return aborts
// the run and is reported through Err.
func (w *AxisWalker) Run(n int) linalg.Vector {
	w.sync()
	w.err = nil
	for i := 0; i < n; i++ {
		if i%interruptStride == 0 && w.interrupted() {
			break
		}
		w.Step()
	}
	return w.x
}

// interrupted polls the interrupt hook, if there is one, and keeps its
// error for Err.
func (w *AxisWalker) interrupted() bool {
	if w.interrupt == nil {
		return false
	}
	w.polls++
	w.err = w.interrupt()
	return w.err != nil
}

// Err returns the interrupt error that aborted the last Run, if any.
func (w *AxisWalker) Err() error { return w.err }

// Current returns the walker's position buffer (aliased: later steps
// move it in place; clone to keep).
func (w *AxisWalker) Current() linalg.Vector { return w.x }

// Stats returns the walker's effort counters.
func (w *AxisWalker) Stats() Stats {
	return Stats{Steps: w.steps, Accepted: w.accepted, OracleCalls: w.oracle, InterruptPolls: w.polls}
}
