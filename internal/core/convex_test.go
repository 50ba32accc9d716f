package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

// fastOpts keeps unit tests quick; accuracy-critical checks use their
// own parameters.
func fastOpts() Options {
	return Options{
		Params: Params{Gamma: 0.25, Eps: 0.3, Delta: 0.1},
		Walk:   walk.HitAndRun,
	}
}

func TestConvexSampleStaysInBody(t *testing.T) {
	p := polytope.FromTuple(constraint.Cube(3, -1, 1))
	c, err := NewConvexPolytope(p, rng.New(1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x, err := c.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !p.Contains(x) {
			t.Fatalf("sample %v left the cube", x)
		}
	}
}

func TestConvexSampleMeanCenters(t *testing.T) {
	p := polytope.FromTuple(constraint.Box(linalg.Vector{2, -3}, linalg.Vector{4, 5}))
	c, err := NewConvexPolytope(p, rng.New(2), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mean := make(linalg.Vector, 2)
	const n = 4000
	for i := 0; i < n; i++ {
		x, err := c.Sample()
		if err != nil {
			t.Fatal(err)
		}
		mean.AddScaled(1.0/n, x)
	}
	if math.Abs(mean[0]-3) > 0.1 || math.Abs(mean[1]-1) > 0.25 {
		t.Errorf("sample mean = %v, want ~(3, 1)", mean)
	}
}

func TestConvexGridWalkSamplesOnGrid(t *testing.T) {
	// The faithful DFK configuration: grid walk, samples are grid points
	// in rounded space.
	opts := fastOpts()
	opts.Walk = walk.GridWalk
	opts.WalkSteps = 4000
	p := polytope.FromTuple(constraint.Cube(2, 0, 1))
	c, err := NewConvexPolytope(p, rng.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Grid()
	for i := 0; i < 50; i++ {
		y, err := c.SampleRounded()
		if err != nil {
			t.Fatal(err)
		}
		snapped := g.Snap(y)
		if !snapped.Equal(y, 1e-9) {
			t.Fatalf("rounded sample %v not on the γ-grid", y)
		}
	}
}

func TestConvexGridWalkUniformity(t *testing.T) {
	// Definition 2.2(1) empirically: cell frequencies on the square stay
	// within a reasonable TV distance of uniform.
	opts := Options{Params: Params{Gamma: 0.45, Eps: 0.3, Delta: 0.1}, Walk: walk.GridWalk, WalkSteps: 600}
	p := polytope.FromTuple(constraint.Cube(2, 0, 1))
	c, err := NewConvexPolytope(p, rng.New(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Grid()
	counts := map[string]int{}
	const n = 6000
	for i := 0; i < n; i++ {
		y, err := c.SampleRounded()
		if err != nil {
			t.Fatal(err)
		}
		counts[g.Key(y)]++
	}
	flat := make([]int, 0, len(counts))
	for _, v := range counts {
		flat = append(flat, v)
	}
	if tv := geom.TVDistanceUniform(flat); tv > 0.25 {
		t.Errorf("grid-walk TV distance = %g over %d cells", tv, len(flat))
	}
}

func TestConvexVolumeCube(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		p := polytope.FromTuple(constraint.Cube(d, -1, 1))
		c, err := NewConvexPolytope(p, rng.New(uint64(10+d)), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Volume()
		if err != nil {
			t.Fatal(err)
		}
		want := num.CubeVolume(d, 2)
		if !num.WithinRatio(v, want, 0.35) {
			t.Errorf("d=%d: estimated cube volume %g vs exact %g", d, v, want)
		}
	}
}

func TestConvexVolumeSimplex(t *testing.T) {
	for _, d := range []int{2, 3} {
		p := polytope.FromTuple(constraint.Simplex(d, 1))
		c, err := NewConvexPolytope(p, rng.New(uint64(20+d)), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Volume()
		if err != nil {
			t.Fatal(err)
		}
		want := num.SimplexVolume(d, 1)
		if !num.WithinRatio(v, want, 0.4) {
			t.Errorf("d=%d: estimated simplex volume %g vs exact %g", d, v, want)
		}
	}
}

func TestConvexVolumeCached(t *testing.T) {
	p := polytope.FromTuple(constraint.Cube(2, 0, 1))
	c, err := NewConvexPolytope(p, rng.New(5), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Volume()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("Volume must be cached per generator instance")
	}
}

func TestConvexElongatedBodyVolume(t *testing.T) {
	// A 1x50 box stresses rounding: without it the walk would barely
	// explore the long axis.
	p := polytope.FromTuple(constraint.Box(linalg.Vector{0, 0}, linalg.Vector{50, 1}))
	c, err := NewConvexPolytope(p, rng.New(6), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(v, 50, 0.4) {
		t.Errorf("elongated box volume = %g, want ~50", v)
	}
}

func TestConvexMembershipOracleBody(t *testing.T) {
	// §5: only a membership oracle is needed — sample a ball given as an
	// oracle, estimate its volume.
	ball := walk.BallBody{Center: linalg.Vector{1, 2, 3}, Radius: 1.5}
	c, err := NewConvex(oracleOnly{ball}, ball.Center, ball.Radius, ball.Radius, rng.New(7), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		x, err := c.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if x.Dist(ball.Center) > ball.Radius+1e-9 {
			t.Fatalf("oracle sample %v left the ball", x)
		}
	}
	v, err := c.Volume()
	if err != nil {
		t.Fatal(err)
	}
	want := num.BallVolume(3, 1.5)
	if !num.WithinRatio(v, want, 0.45) {
		t.Errorf("oracle ball volume = %g, want %g", v, want)
	}
}

type oracleOnly struct{ b walk.Body }

func (o oracleOnly) Dim() int                      { return o.b.Dim() }
func (o oracleOnly) Contains(x linalg.Vector) bool { return o.b.Contains(x) }

func TestConvexRejectsFlatPolytope(t *testing.T) {
	flat := polytope.New([]linalg.Vector{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}, []float64{0, 0, 1, 1})
	if _, err := NewConvexPolytope(flat, rng.New(8), fastOpts()); err == nil {
		t.Error("flat polytope must be rejected as not well-bounded")
	}
}

func TestConvexRejectsUnbounded(t *testing.T) {
	unb := polytope.New([]linalg.Vector{{-1, 0}, {0, -1}}, []float64{0, 0})
	_, err := NewConvexPolytope(unb, rng.New(9), fastOpts())
	if !errors.Is(err, ErrNotWellBounded) {
		t.Fatalf("err = %v, want ErrNotWellBounded", err)
	}
	if want := "core: relation is not well-bounded: lp: no optimal solution"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestConvexRejectsEmpty(t *testing.T) {
	empty := polytope.New([]linalg.Vector{{1}, {-1}}, []float64{0, -1})
	if _, err := NewConvexPolytope(empty, rng.New(10), fastOpts()); err == nil {
		t.Error("empty polytope must be rejected")
	}
}

func TestConvexBadParams(t *testing.T) {
	p := polytope.FromTuple(constraint.Cube(2, 0, 1))
	bad := Options{Params: Params{Gamma: 2, Eps: 0.3, Delta: 0.1}}
	if _, err := NewConvexPolytope(p, rng.New(11), bad); err == nil {
		t.Error("gamma >= 1 must be rejected")
	}
}

func TestConvexDeterministicWithSeed(t *testing.T) {
	p := polytope.FromTuple(constraint.Cube(2, 0, 1))
	a, err := NewConvexPolytope(p, rng.New(42), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConvexPolytope(p, rng.New(42), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		xa, _ := a.Sample()
		xb, _ := b.Sample()
		if !xa.Equal(xb, 0) {
			t.Fatal("same seed must give identical sample streams")
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	var o Options
	if o.params() != p {
		t.Error("zero Options must select DefaultParams")
	}
}
