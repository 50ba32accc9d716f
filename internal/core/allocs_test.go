package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/walk"
)

// TestWalkerStepAllocs guards the allocation-free step on the golden's
// bodies and on a rounded thin slab alone and inside a volume-phase
// ball: every walk kind over the folded polytopes, the rounded
// membership-only body and the volume-phase intersections allocates
// nothing per Step.
func TestWalkerStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	slab := polytope.New([]linalg.Vector{
		{0.6, 0.8, 0}, {-0.6, -0.8, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 0, 1}, {0, 0, -1},
	}, []float64{0.005, 0.005, 1, 1, 1, 1})
	center, innerR, outerR, err := polytopeWitnesses(slab)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rounding.Round(slab, center, innerR, outerR, rng.New(103), rounding.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	bodies := append(goldenBodies(t), []struct {
		name  string
		body  walk.Body
		outer float64
	}{
		{"slab", rs.Body, rs.OuterRadius},
		{"slab-phase", walk.IntersectionBody{Bodies: []walk.Body{
			rs.Body, walk.BallBody{Center: make(linalg.Vector, 3), Radius: 1.5},
		}}, 1.5},
	}...)
	for _, b := range bodies {
		for _, kind := range []walk.Kind{walk.GridWalk, walk.BallWalk, walk.HitAndRun} {
			cfg := walk.Config{Kind: kind, Grid: geom.NewGrid(3, 0.05), Delta: 0.3, OuterRadius: b.outer}
			w, err := walk.New(b.body, make(linalg.Vector, 3), rng.New(7), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, kind, err)
			}
			if a := testing.AllocsPerRun(200, w.Step); a != 0 {
				t.Errorf("%s/%s: %.2f allocations per Step, want 0", b.name, kind, a)
			}
		}
	}
}

// TestConvexSampleAllocs: a warm Convex.Sample allocates only the point
// it returns.
func TestConvexSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := NewConvexPolytope(goldenPolytope(), rng.New(8), Options{Walk: walk.HitAndRun, MaxPhaseSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(50, func() {
		if _, err := c.Sample(); err != nil {
			t.Fatal(err)
		}
	})
	if a > 1 {
		t.Errorf("%.2f allocations per Convex.Sample, want 1", a)
	}
}
