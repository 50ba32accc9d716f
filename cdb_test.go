package cdb_test

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	cdb "repro"
)

// newSampler is a one-off generator for rel, one full sampler setup:
// PrepareSampler under seed, then a bind of the next seed, so the draws
// do not reuse the random stream the preparation's volume pass walked.
func newSampler(tb testing.TB, rel *cdb.Relation, seed uint64, opts cdb.Options) cdb.Observable {
	tb.Helper()
	ps, err := cdb.PrepareSampler(rel, seed, opts)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := ps.NewObservable(seed + 1)
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

func TestQuickstartFlow(t *testing.T) {
	db, err := cdb.Parse(`rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };`)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := db.Relation("S")
	if !ok {
		t.Fatal("S missing")
	}
	gen := newSampler(t, s, 42, cdb.DefaultOptions())
	p, err := gen.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Contains(p) {
		t.Errorf("sample %v outside S", p)
	}
	v, err := gen.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.3 || v > 0.8 {
		t.Errorf("triangle area estimate = %g, want ~0.5", v)
	}
}

// TestBoxScales prepares the box [0, s]² from s = 10⁻⁸ to 10¹⁰⁰ through
// the handle: the rounding map diag(1/r) must stay invertible at every
// scale, every draw must lie in the box and the volume within (1±ε)·s².
func TestBoxScales(t *testing.T) {
	ctx := context.Background()
	eps := cdb.DefaultOptions().Params.Eps
	for _, side := range []string{"1e-8", "1e-3", "1", "1e10", "1e20", "1e50", "1e100"} {
		t.Run(side, func(t *testing.T) {
			db, err := cdb.Open(fmt.Sprintf("rel B(x, y) := { x >= 0, x <= %s, y >= 0, y <= %s };", side, side))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s, err := strconv.ParseFloat(side, 64)
			if err != nil {
				t.Fatal(err)
			}
			v, err := db.Rel("B").Volume(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-s*s) > eps*s*s {
				t.Errorf("volume = %g, want (1±%g)·%g", v, eps, s*s)
			}
			pts, err := db.Rel("B").SampleNSeeded(ctx, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if p[0] < 0 || p[0] > s || p[1] < 0 || p[1] > s {
					t.Fatalf("draw %v outside [0, %g]²", p, s)
				}
			}
		})
	}
}

func TestExactVsEstimated(t *testing.T) {
	rel := cdb.MustRelation("R", []string{"x", "y"},
		cdb.Cube(2, 0, 2), cdb.Cube(2, 1, 3))
	exact, err := cdb.ExactVolume(rel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-7) > 1e-7 {
		t.Fatalf("exact = %g, want 7", exact)
	}
	est, err := newSampler(t, rel, 7, cdb.DefaultOptions()).Volume()
	if err != nil {
		t.Fatal(err)
	}
	if est < 4.5 || est > 10.5 {
		t.Errorf("estimate = %g, want ~7", est)
	}
}

func TestEngineThroughFacade(t *testing.T) {
	db, err := cdb.Open(`
		rel Land(x, y) := { 0 <= x <= 10, 0 <= y <= 10 };
		query Strip(x) := exists y. (Land(x, y) & y <= 1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	v, err := db.Rel("Strip").Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v < 6 || v > 15 {
		t.Errorf("strip length = %g, want ~10", v)
	}
	sym, err := db.Rel("Strip").EvalSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.Contains(cdb.Vector{5}) || sym.Contains(cdb.Vector{11}) {
		t.Error("symbolic result wrong")
	}
}

func TestReconstructThroughFacade(t *testing.T) {
	db, err := cdb.Parse(`rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };`)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.Relation("S")
	gen := newSampler(t, s, 3, cdb.DefaultOptions())
	h, err := cdb.ReconstructConvex(gen, 500)
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Area2D(); a < 0.85 || a > 1.0001 {
		t.Errorf("hull area = %g, want ~1", a)
	}
}

func TestFaithfulOptionsGridWalk(t *testing.T) {
	db, err := cdb.Parse(`rel S(x) := { 0 <= x <= 1 };`)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.Relation("S")
	opts := cdb.FaithfulOptions()
	opts.WalkSteps = 500
	gen := newSampler(t, s, 5, opts)
	for i := 0; i < 50; i++ {
		p, err := gen.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !s.Contains(p) {
			t.Fatalf("grid-walk sample %v escaped", p)
		}
	}
}

func TestProjectAndReconstructFacade(t *testing.T) {
	// Simplex in R^3 onto (x,y): triangle of area 1/2.
	db, err := cdb.Parse(`rel S(x, y, z) := { x >= 0, y >= 0, z >= 0, x + y + z <= 1 };`)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.Relation("S")
	// Build the polytope from the single tuple.
	if len(s.Tuples) != 1 {
		t.Fatal("expected one tuple")
	}
	poly := polytopeFromTuple(s.Tuples[0])
	h, err := cdb.ProjectAndReconstruct(poly, []int{0, 1}, 300, 9, cdb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Area2D(); math.Abs(a-0.5) > 0.1 {
		t.Errorf("projected area = %g, want ~0.5", a)
	}
}

// polytopeFromTuple mirrors the internal conversion for facade tests.
func polytopeFromTuple(t cdb.Tuple) *cdb.Polytope {
	a, b := t.System()
	return &cdb.Polytope{A: a, B: b}
}
