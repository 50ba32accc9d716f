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
// is column j of A, and the ball's chord is closed form, so a step is
// two O(m) passes over the rows: no direction draw and no m×d product
// (Emiris and Fisikopoulos, SoCG 2014).
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
	b    []float64
	m    int
	// r2 is the ball's squared radius.
	r2 float64
	// x is the position, ax its row values A·x and norm2 its |x|².
	x     linalg.Vector
	ax    []float64
	norm2 float64
	r     *rng.RNG
	// interrupt and err work as a Walker's (see Config.Interrupt).
	interrupt func() error
	err       error
	// Effort counters, kept as a Walker keeps them.
	steps, accepted, oracle, polls int
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
		b:         poly.B,
		m:         m,
		r2:        radius * radius,
		x:         start.Clone(),
		ax:        make([]float64, m),
		r:         r,
		interrupt: interrupt,
	}
	for i, row := range poly.A {
		for j, a := range row {
			w.cols[j*m+i] = a
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
	col := w.cols[j*w.m : (j+1)*w.m]
	w.oracle++
	tmin, tmax := math.Inf(-1), math.Inf(1)
	var ok bool
	for i, a := range col {
		if tmin, tmax, ok = polytope.ClipChord(tmin, tmax, w.b[i]-w.ax[i], a); !ok {
			return
		}
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
	for i, a := range col {
		if w.ax[i]+t*a > w.b[i]+num.Eps {
			return
		}
	}
	norm2 := w.norm2 + t*(2*xj+t)
	if norm2 > w.r2 {
		return
	}
	for i, a := range col {
		w.ax[i] += t * a
	}
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
