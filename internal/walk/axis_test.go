package walk

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// TestAxisWalkerTracksRows: a million coordinate hit-and-run steps, with
// no Run to resynchronise them, over a folded thin slab ∩ ball and a
// folded cut cube ∩ ball. Every accepted position passes a fresh
// membership test and lies in the ball, and the row values and |x|² the
// walker carries end within 10⁻⁹ of a recompute.
func TestAxisWalkerTracksRows(t *testing.T) {
	am := foldMap(t)
	const radius = 1
	for _, b := range []struct {
		name string
		poly *polytope.Polytope
	}{
		{"folded-slab∩ball", foldedSlab(am)},
		{"folded-cut∩ball", foldedCut(am)},
	} {
		w, err := NewAxisWalker(b.poly, radius, am.T, rng.New(16), nil)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		const steps = 1_000_000
		for i := 0; i < steps; i++ {
			accepted := w.accepted
			w.Step()
			if w.accepted == accepted {
				continue
			}
			if x := w.Current(); !b.poly.Contains(x) || x.Norm() > radius*(1+1e-12) {
				t.Fatalf("%s: step %d accepted %v outside the body (|x| = %.17g)", b.name, i, x, x.Norm())
			}
		}
		if rate := float64(w.accepted) / steps; rate < 0.99 {
			t.Errorf("%s: acceptance %.4f, want ~1", b.name, rate)
		}
		x := w.Current()
		for i, row := range b.poly.A {
			if got, want := w.ax[i], row.Dot(x); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: row %d tracked %.17g, recomputed %.17g after %d steps", b.name, i, got, want, steps)
			}
		}
		if got, want := w.norm2, x.Dot(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: |x|² tracked %.17g, recomputed %.17g after %d steps", b.name, got, want, steps)
		}
	}
}

// TestAxisWalkerSecondMoment: the walk is uniform on the unit ball when
// the ball lies inside the polytope (E|x|² = d/(d+2)), and on the cube
// when the radius is infinite (E|x|² = d/3).
func TestAxisWalkerSecondMoment(t *testing.T) {
	const d, n = 3, 20000
	for _, c := range []struct {
		name   string
		half   float64
		radius float64
		want   float64
	}{
		{"ball", 2, 1, float64(d) / (d + 2)},
		{"cube", 1, math.Inf(1), float64(d) / 3},
	} {
		cube := polytope.FromTuple(constraint.Cube(d, -c.half, c.half))
		w, err := NewAxisWalker(cube, c.radius, make(linalg.Vector, d), rng.New(17), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var m2 float64
		for i := 0; i < n; i++ {
			x := w.Run(10)
			m2 += x.Dot(x)
		}
		if m2 /= n; math.Abs(m2-c.want) > 0.02 {
			t.Errorf("%s: E|x|² = %.4f, want %.4f", c.name, m2, c.want)
		}
	}
}

// TestAxisWalkerStats: effort is counted as a hit-and-run Walker counts
// it — two oracle calls per step and an interrupt poll every
// interruptStride steps — and an interrupt aborts the Run.
func TestAxisWalkerStats(t *testing.T) {
	polls := 0
	w, err := NewAxisWalker(square(), 2, linalg.Vector{0.5, 0.5}, rng.New(18), func() error {
		polls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(128)
	st := w.Stats()
	if st.Steps != 128 || st.OracleCalls != 256 || st.Accepted != 128 {
		t.Fatalf("stats = %+v, want 128 steps, 256 oracle calls, 128 accepted", st)
	}
	if st.InterruptPolls != 4 || polls != 4 {
		t.Fatalf("InterruptPolls = %d (hook saw %d), want 4", st.InterruptPolls, polls)
	}
	stop := errors.New("stop")
	w.interrupt = func() error { return stop }
	w.Run(100)
	if !errors.Is(w.Err(), stop) || w.Stats().Steps != 128 {
		t.Fatalf("interrupted Run: err %v after %d steps, want %v after 128", w.Err(), w.Stats().Steps, stop)
	}
}

// TestAxisWalkerRejects: a start outside the polytope or the ball, a
// non-positive radius and a start of the wrong dimension are errors.
func TestAxisWalkerRejects(t *testing.T) {
	for _, c := range []struct {
		name    string
		radius  float64
		start   linalg.Vector
		outside bool
	}{
		{"outside-polytope", 5, linalg.Vector{2, 0.5}, true},
		{"outside-ball", 0.5, linalg.Vector{0.5, 0.5}, true},
		{"zero-radius", 0, linalg.Vector{0.5, 0.5}, false},
		{"wrong-dimension", 2, linalg.Vector{0.5}, false},
	} {
		_, err := NewAxisWalker(square(), c.radius, c.start, rng.New(19), nil)
		if err == nil || c.outside != errors.Is(err, ErrStartOutside) {
			t.Errorf("%s: error %v, want one that is ErrStartOutside: %v", c.name, err, c.outside)
		}
	}
}

// referenceAxisStep is the coordinate step as first written: the chord
// clipped row by row with polytope.ClipChord, the proposal tested in one
// pass over the rows and committed in another. It is kept as the
// bit-for-bit reference for AxisWalker.Step.
func referenceAxisStep(w *AxisWalker) {
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

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAxisWalkerMatchesReference drives AxisWalker.Step and
// referenceAxisStep from equal RNG streams for 10⁵ steps over four
// bodies — rows with |A[i][j]| <= num.Eps, a zero column under a finite
// ball, a polytope with no ball, and a row parallel to every axis whose
// slack the tracked position pushes below −num.Eps, so whole steps are
// refused — and checks after every step that the position, the row
// values, |x|² and the effort counters agree bit for bit.
func TestAxisWalkerMatchesReference(t *testing.T) {
	eps := num.Eps
	cube := polytope.FromTuple(constraint.Cube(3, -1, 1))
	for _, c := range []struct {
		name   string
		poly   *polytope.Polytope
		radius float64
		start  linalg.Vector
		// reset, when set, moves both walkers to a fresh point of the
		// cube ∩ ball every resetEvery steps.
		reset bool
	}{
		{"parallel-rows", cube.
			WithHalfspace(linalg.Vector{1, eps, -eps}, 0.9).
			WithHalfspace(linalg.Vector{eps / 2, 1, -3e-12}, 0.8).
			WithHalfspace(linalg.Vector{-eps, 0, 1}, 0.7).
			WithHalfspace(linalg.Vector{1.0000001 * eps, -0.5, 1}, 0.75),
			1.5, linalg.Vector{0.1, -0.2, 0.05}, false},
		{"zero-column", polytope.New([]linalg.Vector{
			{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {1, 1, 0},
		}, []float64{1, 1, 1, 1, 1.5}), 2, linalg.Vector{0, 0, 0.3}, false},
		{"infinite-radius", foldedCut(foldMap(t)), math.Inf(1), foldMap(t).T, false},
		{"refused-steps", cube.WithHalfspace(linalg.Vector{eps, eps, eps}, 0), 1.5, linalg.Vector{-0.2, -0.2, -0.2}, true},
	} {
		w, err := NewAxisWalker(c.poly, c.radius, c.start, rng.New(21), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := NewAxisWalker(c.poly, c.radius, c.start, rng.New(21), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resets := rng.New(22)
		p := make(linalg.Vector, len(c.start))
		const steps, resetEvery = 100_000, 64
		for i := 0; i < steps; i++ {
			if c.reset && i%resetEvery == 0 {
				for {
					for k := range p {
						p[k] = resets.Uniform(-1, 1)
					}
					if p.Norm() <= c.radius {
						break
					}
				}
				for _, v := range []*AxisWalker{w, ref} {
					copy(v.x, p)
					v.sync()
				}
			}
			w.Step()
			referenceAxisStep(ref)
			if !sameBits(w.x, ref.x) || !sameBits(w.ax, ref.ax) || !sameBits([]float64{w.norm2}, []float64{ref.norm2}) || w.Stats() != ref.Stats() {
				t.Fatalf("%s: step %d: kernel x=%v ax=%v |x|²=%v %+v, reference x=%v ax=%v |x|²=%v %+v",
					c.name, i, w.x, w.ax, w.norm2, w.Stats(), ref.x, ref.ax, ref.norm2, ref.Stats())
			}
		}
		st := w.Stats()
		if st.Accepted == 0 {
			t.Errorf("%s: no step accepted", c.name)
		}
		if c.reset && st.OracleCalls >= 2*st.Steps {
			t.Errorf("%s: %+v: no step was refused before its proposal", c.name, st)
		}
	}
}
