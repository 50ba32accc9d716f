package walk

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/linalg"
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
