package rounding

import (
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

func TestRoundTranslatesAndScales(t *testing.T) {
	// Cube [10, 12]^2: inner ball radius 1 at (11, 11).
	p := polytope.FromTuple(constraint.Cube(2, 10, 12))
	c, r, err := p.Chebyshev()
	if err != nil {
		t.Fatal(err)
	}
	_, outer, err := p.EnclosingBall()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Round(p, c, r, outer, rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Origin must be deep inside the rounded body, and the unit ball
	// must fit.
	d := 2
	if !ro.Body.Contains(make(linalg.Vector, d)) {
		t.Error("origin not inside rounded body")
	}
	probe := linalg.Vector{0.99, 0}
	if !ro.Body.Contains(probe) {
		t.Error("unit ball does not fit in rounded body")
	}
	if ro.InnerRadius != 1 {
		t.Errorf("inner radius = %g, want 1", ro.InnerRadius)
	}
	if ro.Ratio() < 1 || ro.Ratio() > 3 {
		t.Errorf("cube sandwich ratio = %g, want ~sqrt(2)", ro.Ratio())
	}
}

func TestRoundRequiresInnerBall(t *testing.T) {
	p := polytope.FromTuple(constraint.Cube(2, 0, 1))
	if _, err := Round(p, linalg.Vector{0.5, 0.5}, 0, 1, rng.New(2), Options{}); err != ErrNotWellBounded {
		t.Errorf("err = %v, want ErrNotWellBounded", err)
	}
}

func TestRoundVolumePreservedThroughDeterminant(t *testing.T) {
	// vol(K) = vol(rounded K) / |det M|: check with an exactly computable
	// rounded volume (cube stays a box under the translate+scale map).
	p := polytope.FromTuple(constraint.Cube(2, 3, 7)) // volume 16
	c, r, _ := p.Chebyshev()
	_, outer, _ := p.EnclosingBall()
	ro, err := Round(p, c, r, outer, rng.New(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := p.Image(ro.Map)
	v, err := img.Volume()
	if err != nil {
		t.Fatal(err)
	}
	back := v / ro.Map.DetAbs()
	if math.Abs(back-16) > 1e-6 {
		t.Errorf("volume through map = %g, want 16", back)
	}
}

func TestIsotropyRoundingImprovesElongatedBody(t *testing.T) {
	// A 1 x 100 box has sandwich ratio ~100 after recentring; covariance
	// rounding must bring it within a small constant.
	p := polytope.FromTuple(constraint.Box(
		linalg.Vector{0, 0}, linalg.Vector{100, 1}))
	c, r, err := p.Chebyshev()
	if err != nil {
		t.Fatal(err)
	}
	_, outer, err := p.EnclosingBall()
	if err != nil {
		t.Fatal(err)
	}
	noRound, err := Round(p, c, r, outer, rng.New(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if noRound.Ratio() < 50 {
		t.Fatalf("sanity: unrounded ratio = %g, expected ~100", noRound.Ratio())
	}
	rounded, err := Round(p, c, r, outer, rng.New(4), Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rounded.Ratio() > 12 {
		t.Errorf("rounded ratio = %g, want < 12", rounded.Ratio())
	}
	// The rounded body must still contain the unit ball direction probes.
	if !rounded.Body.Contains(make(linalg.Vector, 2)) {
		t.Error("origin missing from rounded body")
	}
}

func TestRoundedMembershipConsistent(t *testing.T) {
	// Membership through the map agrees with the original body.
	p := polytope.FromTuple(constraint.Box(linalg.Vector{0, 0}, linalg.Vector{10, 1}))
	c, r, _ := p.Chebyshev()
	_, outer, _ := p.EnclosingBall()
	ro, err := Round(p, c, r, outer, rng.New(5), Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	rr := rng.New(6)
	for i := 0; i < 500; i++ {
		x := linalg.Vector{rr.Uniform(-1, 11), rr.Uniform(-0.5, 1.5)}
		y := ro.Map.Apply(x)
		if p.Contains(x) != ro.Body.Contains(y) {
			t.Fatalf("membership mismatch at %v", x)
		}
	}

	// H-polytopes come back folded: the rounded body is a plain polytope
	// whose membership agrees with the original's. Random cut cubes at
	// d = 2..6, stretched 8× along x0 so the isotropy passes run, and
	// translated 10⁴ from the origin, agree at random points except
	// within 10⁻⁹ of a facet.
	for d := 2; d <= 6; d++ {
		p := polytope.FromTuple(constraint.Cube(d, -1, 1))
		for k := 0; k < d; k++ {
			n := make(linalg.Vector, d)
			rr.OnSphere(n)
			p = p.WithHalfspace(n, 0.8)
		}
		stretch := linalg.Identity(d)
		stretch.Set(0, 0, 8)
		far := make(linalg.Vector, d)
		rr.OnSphere(far)
		far = far.Scale(1e4)
		place, err := linalg.NewAffineMap(stretch, far)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Image(place)
		c, r, err := p.Chebyshev()
		if err != nil {
			t.Fatal(err)
		}
		bc, outer, err := p.EnclosingBall()
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Round(p, c, r, c.Dist(bc)+outer, rng.New(uint64(10+d)), Options{Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ro.Body.(*polytope.Polytope); !ok {
			t.Fatalf("d=%d: rounded body is %T, want a folded *polytope.Polytope", d, ro.Body)
		}
		if ro.Ratio() > 8 {
			t.Errorf("d=%d: sandwich ratio %.2f after isotropy rounding", d, ro.Ratio())
		}
		x := make(linalg.Vector, d)
		for i := 0; i < 2000; i++ {
			for j := range x {
				x[j] = far[j] + rr.Uniform(-1.2, 1.2)*stretch.At(j, j)
			}
			if p.Contains(x) != ro.Body.Contains(ro.Map.Apply(x)) && !nearFacet(p, x, 1e-9) {
				t.Fatalf("d=%d: membership mismatch at %v", d, x)
			}
		}
	}
}

// nearFacet reports whether x lies within tol of one of p's hyperplanes.
func nearFacet(p *polytope.Polytope, x linalg.Vector, tol float64) bool {
	for i, row := range p.A {
		if math.Abs(row.Dot(x)-p.B[i]) <= tol*row.Norm() {
			return true
		}
	}
	return false
}

func TestRoundMembershipOnlyBody(t *testing.T) {
	// An ellipsoid oracle (no chords in the stripped wrapper).
	ell := oracleBody{walk.BallBody{Center: linalg.Vector{5, 5}, Radius: 2}}
	ro, err := Round(ell, linalg.Vector{5, 5}, 2, 2, rng.New(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.Body.(walk.MappedBody); !ok {
		t.Errorf("rounded membership-only body is %T, want walk.MappedBody", ro.Body)
	}
	if !ro.Body.Contains(linalg.Vector{0.9, 0}) {
		t.Error("rounded oracle body must contain the unit ball")
	}
	if ro.Body.Contains(linalg.Vector{1.5, 0}) {
		t.Error("rounded ball of radius 1 must exclude 1.5")
	}
}

type oracleBody struct{ b walk.Body }

func (o oracleBody) Dim() int                      { return o.b.Dim() }
func (o oracleBody) Contains(x linalg.Vector) bool { return o.b.Contains(x) }
