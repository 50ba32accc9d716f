package core

import (
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// fig1Triangle is the right triangle {x >= 0, y >= 0, x + y <= 1}: its
// projection onto y is [0, 1], but cylinder widths shrink linearly with
// y — exactly the Figure 1 configuration of the paper.
func fig1Triangle() *polytope.Polytope {
	return polytope.New(
		[]linalg.Vector{{-1, 0}, {0, -1}, {1, 1}},
		[]float64{0, 0, 1},
	)
}

func TestProjectionSamplesInsideT(t *testing.T) {
	pr, err := NewProjection(fig1Triangle(), []int{1}, rng.New(1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		y, err := pr.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if len(y) != 1 || y[0] < -0.05 || y[0] > 1.05 {
			t.Fatalf("projection sample %v outside [0,1]", y)
		}
	}
}

func TestProjectionFixesFigure1(t *testing.T) {
	// The paper's Figure 1 phenomenon: naive projection of the triangle
	// onto y is linearly biased toward 0; Algorithm 2 flattens it.
	// Compare the mean: naive E[y] = 1/3, uniform E[y] = 1/2.
	pr, err := NewProjection(fig1Triangle(), []int{1}, rng.New(2), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	var naiveMean, algoMean float64
	for i := 0; i < n; i++ {
		ny, err := pr.SampleNaive()
		if err != nil {
			t.Fatal(err)
		}
		naiveMean += ny[0] / n
	}
	for i := 0; i < n; i++ {
		y, err := pr.Sample()
		if err != nil {
			t.Fatal(err)
		}
		algoMean += y[0] / n
	}
	if math.Abs(naiveMean-1.0/3) > 0.05 {
		t.Errorf("naive projection mean = %g, want ~1/3 (the Figure 1 bias)", naiveMean)
	}
	if math.Abs(algoMean-0.5) > 0.05 {
		t.Errorf("Algorithm 2 mean = %g, want ~1/2 (uniform)", algoMean)
	}
}

func TestProjectionUniformityTV(t *testing.T) {
	// Histogram over the γ-grid of T: Algorithm 2's TV distance to
	// uniform must be clearly below the naive projection's.
	pr, err := NewProjection(fig1Triangle(), []int{1}, rng.New(3), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	g := pr.Grid()
	bins := func(sample func() (linalg.Vector, error), n int) []int {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			y, err := sample()
			if err != nil {
				t.Fatal(err)
			}
			// Clamp to the interior so boundary half-cells do not distort
			// the histogram.
			yy := y[0]
			if yy < 0.05 || yy > 0.95 {
				continue
			}
			counts[g.Key(linalg.Vector{yy})]++
		}
		flat := make([]int, 0, len(counts))
		for _, c := range counts {
			flat = append(flat, c)
		}
		return flat
	}
	const n = 2500
	naiveTV := geom.TVDistanceUniform(bins(pr.SampleNaive, n))
	algoTV := geom.TVDistanceUniform(bins(pr.Sample, n))
	if algoTV >= naiveTV {
		t.Errorf("Algorithm 2 TV (%g) must beat naive TV (%g)", algoTV, naiveTV)
	}
	if naiveTV < 0.1 {
		t.Errorf("naive TV = %g: the Figure 1 bias should be pronounced", naiveTV)
	}
	if algoTV > 0.15 {
		t.Errorf("Algorithm 2 TV = %g: should be near uniform", algoTV)
	}
}

func TestProjectionVolume(t *testing.T) {
	// Projection of the triangle onto y is [0, 1]: length 1.
	pr, err := NewProjection(fig1Triangle(), []int{1}, rng.New(4), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	v, err := pr.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(v, 1, 0.45) {
		t.Errorf("projection volume = %g, want ~1", v)
	}
}

func TestProjection3DTo2D(t *testing.T) {
	// Simplex in R^3 projected to (x, y): T is the triangle
	// {x, y >= 0, x + y <= 1}, area 1/2.
	p := polytope.FromTuple(constraint.Simplex(3, 1))
	pr, err := NewProjection(p, []int{0, 1}, rng.New(5), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tri := polytope.FromTuple(constraint.Simplex(2, 1))
	for i := 0; i < 150; i++ {
		y, err := pr.Sample()
		if err != nil {
			t.Fatal(err)
		}
		// Allow half-cell slack at the boundary from snapping.
		grown := tri.Clone()
		for k := range grown.B {
			grown.B[k] += pr.Grid().Step
		}
		if !grown.Contains(y) {
			t.Fatalf("projected sample %v outside the triangle", y)
		}
	}
	v, err := pr.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(v, 0.5, 0.5) {
		t.Errorf("projected area = %g, want ~0.5", v)
	}
}

func TestProjectionMembershipOracle(t *testing.T) {
	pr, err := NewProjection(fig1Triangle(), []int{0}, rng.New(6), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Contains(linalg.Vector{0.5}) || pr.Contains(linalg.Vector{1.5}) {
		t.Error("projection LP membership wrong")
	}
	pb := ProjectionBody{Pr: pr}
	if pb.Dim() != 1 || !pb.Contains(linalg.Vector{0.25}) {
		t.Error("ProjectionBody adapter wrong")
	}
	c, r, err := pb.InnerBall()
	if err != nil || r <= 0 || len(c) != 1 {
		t.Errorf("inner ball witness = %v, %g, %v", c, r, err)
	}
	R, err := pb.OuterRadius()
	if err != nil || R <= 0 {
		t.Errorf("outer radius witness = %g, %v", R, err)
	}
}

func TestProjectionRejectsBadCoordinates(t *testing.T) {
	p := fig1Triangle()
	cases := [][]int{{}, {0, 1}, {-1}, {5}, {0, 0}}
	for _, keep := range cases {
		if _, err := NewProjection(p, keep, rng.New(7), fastOpts()); err == nil {
			t.Errorf("keep=%v must be rejected", keep)
		}
	}
}

func TestProjectionAcceptanceReported(t *testing.T) {
	pr, err := NewProjection(fig1Triangle(), []int{1}, rng.New(8), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := pr.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if r := pr.AcceptanceRate(); r <= 0 || r > 1 {
		t.Errorf("acceptance rate = %g", r)
	}
}

// TestProjectionChordCylinders: a cylinder over one eliminated
// coordinate, measured as the polytope's chord along that axis, equals
// the slice measure it replaces (Slice, LP emptiness, Lasserre) to 10⁻⁹
// relative at random y inside T, and is 0 at every y outside T.
func TestProjectionChordCylinders(t *testing.T) {
	poly := goldenPolytope()
	lo, hi, err := poly.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	rr := rng.New(9)
	for drop := 0; drop < poly.Dim(); drop++ {
		var keep []int
		for j := 0; j < poly.Dim(); j++ {
			if j != drop {
				keep = append(keep, j)
			}
		}
		pr, err := NewProjection(poly, keep, rng.New(10), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		sliceCells := func(y linalg.Vector) float64 {
			slice := poly.Slice(keep, y)
			if slice.IsEmpty() {
				return 0
			}
			v, err := slice.Volume()
			if err != nil {
				t.Fatal(err)
			}
			return v / pr.grid.Step
		}
		inside, outside := 0, 0
		for inside < 200 || outside < 200 {
			x := make(linalg.Vector, poly.Dim())
			for j := range x {
				x[j] = rr.Uniform(lo[j]-1, hi[j]+1)
			}
			y := pr.project(x)
			got, err := pr.cylinderCellsUncached(y)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case poly.ContainsStrict(x, 1e-3):
				inside++
				if want := sliceCells(y); math.Abs(got-want) > 1e-9*want {
					t.Fatalf("drop %d, y=%v: chord cylinder %.17g cells, slice %.17g", drop, y, got, want)
				}
			case poly.Slice(keep, y).IsEmpty():
				outside++
				if got != 0 {
					t.Fatalf("drop %d, y=%v outside T: cylinder %g cells, want 0", drop, y, got)
				}
			}
		}
	}
}
