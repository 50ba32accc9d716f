package walk

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// TestStepAllocs guards the allocation-free step: every walk kind over
// an H-polytope, a ball, their intersection, an affine image, a
// membership-only body (bisection chords), a folded thin slab and a
// folded polytope ∩ ball (tracked row values) allocates nothing per Step.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := 3
	cube := benchBody(d)
	ball := BallBody{Center: center(d), Radius: 1}
	scale := linalg.Identity(d)
	scale.Set(0, 1, 0.5)
	am, err := linalg.NewAffineMap(scale, linalg.Vector{0.1, -0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fold := foldMap(t)
	bodies := []struct {
		name string
		body Body
	}{
		{"polytope", cube},
		{"ball", ball},
		{"intersection", IntersectionBody{Bodies: []Body{cube, ball}}},
		{"mapped", MappedBody{Orig: cube, Map: am}},
		{"membership-only", oracleBody{ball}},
		{"mapped-membership-only", MappedBody{Orig: oracleBody{ball}, Map: am}},
		{"folded-slab", foldedSlab(fold)},
		{"folded-cut∩ball", IntersectionBody{Bodies: []Body{foldedCut(fold), ball}}},
	}
	for _, b := range bodies {
		for _, kind := range []Kind{GridWalk, BallWalk, HitAndRun} {
			cfg := Config{Kind: kind, Grid: geom.NewGrid(d, 0.05), Delta: 0.3, OuterRadius: 2}
			w, err := New(b.body, linalg.Vector{0.1, -0.1, 0.2}, rng.New(1), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, kind, err)
			}
			if a := testing.AllocsPerRun(200, w.Step); a != 0 {
				t.Errorf("%s/%s: %.2f allocations per Step, want 0", b.name, kind, a)
			}
		}
	}
}

// TestAxisWalkerStepAllocs guards the coordinate kernel's step the same
// way: a step over a folded thin slab ∩ ball and a folded cut cube ∩
// ball allocates nothing.
func TestAxisWalkerStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fold := foldMap(t)
	for name, poly := range map[string]*polytope.Polytope{
		"folded-slab∩ball": foldedSlab(fold),
		"folded-cut∩ball":  foldedCut(fold),
	} {
		w, err := NewAxisWalker(poly, 1, fold.T, rng.New(1), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a := testing.AllocsPerRun(200, w.Step); a != 0 {
			t.Errorf("%s: %.2f allocations per Step, want 0", name, a)
		}
	}
}
