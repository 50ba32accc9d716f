package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/rng"
)

func TestExactVolumeMatchesClosedForms(t *testing.T) {
	cases := []struct {
		name string
		rel  *constraint.Relation
		want float64
	}{
		{"cube3", constraint.MustRelation("C", []string{"x", "y", "z"}, constraint.Cube(3, 0, 2)), 8},
		{"simplex2", constraint.MustRelation("S", []string{"x", "y"}, constraint.Simplex(2, 1)), 0.5},
		{"union", constraint.MustRelation("U", []string{"x"},
			constraint.Cube(1, 0, 2), constraint.Cube(1, 1, 3)), 3},
	}
	for _, c := range cases {
		v, err := ExactVolume(c.rel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if num.RelErr(v, c.want) > 1e-7 {
			t.Errorf("%s: exact volume = %g, want %g", c.name, v, c.want)
		}
	}
}

func TestGridEnumUniform(t *testing.T) {
	rel := constraint.MustRelation("R", []string{"x", "y"}, constraint.Cube(2, 0, 1))
	g, err := NewGridEnum(rel, 0.1, 1<<20, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.CellCount() == 0 {
		t.Fatal("no cells enumerated")
	}
	// Exact uniformity over cells: chi-square-ish bound on counts.
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		x, err := g.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[g.Grid().Key(x)]++
	}
	if len(counts) != g.CellCount() {
		t.Errorf("sampled %d distinct cells of %d", len(counts), g.CellCount())
	}
	flat := make([]int, 0, len(counts))
	for _, c := range counts {
		flat = append(flat, c)
	}
	if tv := geom.TVDistanceUniform(flat); tv > 0.08 {
		t.Errorf("grid-enum TV distance = %g (must be sampling noise only)", tv)
	}
}

func TestGridEnumVolume(t *testing.T) {
	rel := constraint.MustRelation("R", []string{"x", "y"},
		constraint.Simplex(2, 1))
	g, err := NewGridEnum(rel, 0.02, 1<<22, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if num.RelErr(v, 0.5) > 0.1 {
		t.Errorf("grid volume = %g, want ~0.5", v)
	}
}

func TestGridEnumBudgetExplosion(t *testing.T) {
	// The expected failure mode when dimension is not fixed: the cell
	// count (R/γ)^d blows past any budget.
	rel := constraint.MustRelation("R", []string{"a", "b", "c", "d", "e", "f"},
		constraint.Cube(6, 0, 1))
	_, err := NewGridEnum(rel, 0.05, 100000, rng.New(3))
	if !errors.Is(err, geom.ErrTooManyCells) {
		t.Errorf("err = %v, want ErrTooManyCells", err)
	}
}

func TestGridEnumUnboundedRejected(t *testing.T) {
	unb := constraint.NewTuple(1, constraint.NewAtom(linalg.Vector{-1}, 0, false))
	rel := constraint.MustRelation("U", []string{"x"}, unb)
	if _, err := NewGridEnum(rel, 0.1, 1000, rng.New(4)); err == nil {
		t.Error("unbounded relation must be rejected")
	}
}

func TestGridEnumBadGamma(t *testing.T) {
	rel := constraint.MustRelation("R", []string{"x"}, constraint.Cube(1, 0, 1))
	for _, gamma := range []float64{0, -0.1, 1, 2} {
		if _, err := NewGridEnum(rel, gamma, 1000, rng.New(5)); err == nil {
			t.Errorf("gamma=%g must be rejected", gamma)
		}
	}
}

func TestGridEnumMembership(t *testing.T) {
	rel := constraint.MustRelation("R", []string{"x"}, constraint.Cube(1, 0, 1))
	g, err := NewGridEnum(rel, 0.1, 1000, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Contains(linalg.Vector{0.5}) || g.Contains(linalg.Vector{2}) {
		t.Error("grid-enum membership wrong")
	}
	if g.Dim() != 1 {
		t.Error("dim wrong")
	}
}

// prepareAndBind is the one-off generator for rel: PrepareRelation and
// Bind, both drawing from r.
func prepareAndBind(rel *constraint.Relation, r *rng.RNG) (Observable, error) {
	p, err := PrepareRelation(rel, r, fastOpts())
	if err != nil {
		return nil, err
	}
	return p.Bind(r)
}

func TestRelationObservableSingleTuple(t *testing.T) {
	rel := constraint.MustRelation("R", []string{"x", "y"}, constraint.Cube(2, 0, 2))
	obs, err := prepareAndBind(rel, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.(*Convex); !ok {
		t.Errorf("single tuple should yield *Convex, got %T", obs)
	}
	v, err := obs.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(v, 4, 0.35) {
		t.Errorf("volume = %g, want ~4", v)
	}
}

func TestRelationObservableUnion(t *testing.T) {
	rel := constraint.MustRelation("R", []string{"x"},
		constraint.Cube(1, 0, 1), constraint.Cube(1, 5, 9))
	obs, err := prepareAndBind(rel, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.(*Union); !ok {
		t.Errorf("multi-tuple relation should yield *Union, got %T", obs)
	}
	v, err := obs.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(v, 5, 0.35) {
		t.Errorf("volume = %g, want ~5", v)
	}
	// Mass split 1:4.
	inSmall := 0
	const n = 1500
	for i := 0; i < n; i++ {
		x, err := obs.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if x[0] < 2 {
			inSmall++
		}
	}
	if f := float64(inSmall) / n; math.Abs(f-0.2) > 0.06 {
		t.Errorf("small-component fraction = %g, want ~0.2", f)
	}
}

func TestRelationObservablePrunesEmptyTuples(t *testing.T) {
	emptyT := constraint.NewTuple(1,
		constraint.NewAtom(linalg.Vector{1}, 0, false),
		constraint.NewAtom(linalg.Vector{-1}, -1, false))
	rel := constraint.MustRelation("R", []string{"x"}, constraint.Cube(1, 0, 1), emptyT)
	obs, err := prepareAndBind(rel, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.(*Convex); !ok {
		t.Errorf("after pruning, one tuple remains: want *Convex, got %T", obs)
	}
}

func TestRelationObservableEmptyRejected(t *testing.T) {
	emptyT := constraint.NewTuple(1,
		constraint.NewAtom(linalg.Vector{1}, 0, false),
		constraint.NewAtom(linalg.Vector{-1}, -1, false))
	rel := constraint.MustRelation("E", []string{"x"}, emptyT)
	if _, err := PrepareRelation(rel, rng.New(10), fastOpts()); err == nil {
		t.Error("empty relation must be rejected")
	}
}

func TestTupleObservable(t *testing.T) {
	rel := constraint.MustRelation("T", []string{"x", "y"}, constraint.Cube(2, 0, 1))
	c, err := prepareAndBind(rel, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(x) {
		t.Error("tuple observable sample outside")
	}
}

func TestFixedDimVsRandomizedAgreement(t *testing.T) {
	// Section 3 vs Section 4 on the same relation: exact volume and DFK
	// estimate must agree within the ratio bound.
	rel := constraint.MustRelation("R", []string{"x", "y"},
		constraint.Cube(2, 0, 2), constraint.Cube(2, 1, 3))
	exact, err := ExactVolume(rel)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := prepareAndBind(rel, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	est, err := obs.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(est, exact, 0.4) {
		t.Errorf("estimate %g vs exact %g", est, exact)
	}
}
