package cdb_test

// Tests of the symbolic-evaluation terminal: hand-computed fixtures for
// the full first-order algebra (Minus of a projection, Div), prepared-
// symbolic cache sharing asserted through the handle's cache metrics,
// negative caching of provably empty results, and the differential
// fuzz harness comparing VolumeSymbolic (exact inclusion–exclusion over
// the eliminated DNF) against the Monte-Carlo Volume estimate.

import (
	"context"
	"math"
	"strings"
	"testing"

	cdb "repro"
)

const symbolicProgram = `
rel R(x)    := { 0 <= x <= 4 };
rel S(x, y) := { 1 <= x <= 2, 0 <= y <= 1 };
rel N(x, y) := { 0 <= x <= 3, 0 <= y <= 1, x + y <= 3 };
rel O(y)    := { 0 <= y <= 1 };
rel A(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
rel B(x, y) := { 0.5 <= x <= 2, 0 <= y <= 1 };
rel C(x, y) := { 3 <= x <= 4, 0 <= y <= 1 };
`

func openSymbolic(t *testing.T) *cdb.DB {
	t.Helper()
	db, err := cdb.Open(symbolicProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestEvalSymbolicMinusOfProjection: R \ π_x(S) = [0,1) ∪ (2,4] — the
// acceptance fixture for negation under ∃, verified point-by-point
// against the hand-computed relation, open boundaries included.
func TestEvalSymbolicMinusOfProjection(t *testing.T) {
	db := openSymbolic(t)
	ctx := context.Background()
	expr := db.Rel("R").Minus(db.Rel("S").Project("x"))

	// The sampling terminals reject the fragment escape...
	if _, err := expr.Volume(ctx); err == nil {
		t.Error("sampling Volume of Minus-of-projection must be rejected")
	}
	// ...the symbolic terminal evaluates it.
	rel, err := expr.EvalSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := expr.Columns(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("columns = %v, want [x]", got)
	}
	for _, c := range []struct {
		x  float64
		in bool
	}{{0, true}, {0.99, true}, {1, false}, {1.5, false}, {2, false}, {2.01, true}, {4, true}, {4.1, false}} {
		if rel.Contains(cdb.Vector{c.x}) != c.in {
			t.Errorf("x=%g: contains = %v, want %v (rel %s)", c.x, !c.in, c.in, rel)
		}
	}
	v, err := expr.VolumeSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3) > 1e-6 {
		t.Errorf("exact volume = %g, want 3", v)
	}
	// Source() round-trips through the parser to the same set.
	back, err := cdb.ParseRelation(strings.TrimPrefix(rel.Source(), "rel "), nil)
	if err != nil {
		t.Fatalf("source %q does not parse: %v", rel.Source(), err)
	}
	for _, x := range []float64{0.5, 1, 1.5, 2, 3} {
		if back.Contains(cdb.Vector{x}) != rel.Contains(cdb.Vector{x}) {
			t.Errorf("source round-trip changed membership at x=%g", x)
		}
	}
}

// TestEvalSymbolicDiv: N ÷ O = {x : ∀y∈[0,1], (x,y) ∈ N} = [0,2] — the
// acceptance fixture for the universal combinator.
func TestEvalSymbolicDiv(t *testing.T) {
	db := openSymbolic(t)
	ctx := context.Background()
	expr := db.Rel("N").Div(db.Rel("O"))

	if _, err := expr.SampleN(ctx, 1); err == nil {
		t.Error("sampling a Div expression must be rejected")
	}
	rel, err := expr.EvalSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x  float64
		in bool
	}{{-0.5, false}, {0, true}, {1, true}, {2, true}, {2.1, false}, {3, false}} {
		if rel.Contains(cdb.Vector{c.x}) != c.in {
			t.Errorf("x=%g: contains = %v, want %v (rel %s)", c.x, !c.in, c.in, rel)
		}
	}
	v, err := expr.VolumeSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-6 {
		t.Errorf("exact volume = %g, want 2", v)
	}
}

// TestEvalSymbolicInFragment: an in-fragment union evaluates through
// the canonical plan and VolumeSymbolic returns the exact area.
func TestEvalSymbolicInFragment(t *testing.T) {
	db := openSymbolic(t)
	ctx := context.Background()
	// A ∪ B: [0,2] x [0,1] with overlap — exact area 2.
	v, err := db.Rel("A").Union(db.Rel("B")).VolumeSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-6 {
		t.Errorf("exact union volume = %g, want 2", v)
	}
	// Projection through the plan path: π_x(S) = [1, 2], length 1.
	v, err = db.Rel("S").Project("x").VolumeSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-6 {
		t.Errorf("exact projection volume = %g, want 1", v)
	}
}

// TestEvalSymbolicCacheReplay: replays hit the prepared-symbolic cache
// — the hit counter increases and structurally equal expressions built
// in different operand orders share one entry.
func TestEvalSymbolicCacheReplay(t *testing.T) {
	db := openSymbolic(t)
	ctx := context.Background()

	e1 := db.Rel("A").Intersect(db.Rel("B"))
	e2 := db.Rel("B").Intersect(db.Rel("A")) // operand-permuted twin
	before := db.CacheStats()
	if _, err := e1.EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	mid := db.CacheStats()
	if mid.Misses != before.Misses+1 {
		t.Errorf("cold EvalSymbolic: misses %d -> %d, want one build", before.Misses, mid.Misses)
	}
	if _, err := e2.EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Hits != mid.Hits+1 || after.Misses != mid.Misses {
		t.Errorf("permuted replay: hits %d -> %d, misses %d -> %d, want a pure cache hit",
			mid.Hits, after.Hits, mid.Misses, after.Misses)
	}

	// Full-FO expressions replay through their formula-hash key too.
	div := db.Rel("N").Div(db.Rel("O"))
	if _, err := div.EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	h0 := db.CacheStats().Hits
	if _, err := db.Rel("N").Div(db.Rel("O")).EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	if h := db.CacheStats().Hits; h != h0+1 {
		t.Errorf("full-FO replay: hits %d -> %d, want one hit", h0, h)
	}
}

// TestEvalSymbolicEmptyNegative: a provably empty difference returns a
// relation with no tuples, volume 0, and replays as a negative entry.
func TestEvalSymbolicEmptyNegative(t *testing.T) {
	db := openSymbolic(t)
	ctx := context.Background()
	empty := db.Rel("A").Minus(db.Rel("A"))
	rel, err := empty.EvalSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 0 {
		t.Fatalf("A \\ A should have no tuples, got %s", rel)
	}
	v, err := empty.VolumeSymbolic(ctx)
	if err != nil || v != 0 {
		t.Errorf("empty VolumeSymbolic = %g, %v; want 0, nil", v, err)
	}
	h0 := db.CacheStats().Hits
	if _, err := db.Rel("A").Minus(db.Rel("A")).EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	if h := db.CacheStats().Hits; h != h0+1 {
		t.Errorf("negative replay: hits %d -> %d, want one hit", h0, h)
	}
}

// TestExplainSymbolicResidency: Explain reports the symbolic cache
// residency — "miss" cold, "hit" after EvalSymbolic — and renders a
// symbolic-only report for full-FO expressions instead of erroring.
func TestExplainSymbolicResidency(t *testing.T) {
	db := openSymbolic(t)
	ctx := context.Background()

	expr := db.Rel("A").Intersect(db.Rel("B"))
	rep, err := expr.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Symbolic != "miss" || rep.SymbolicOnly {
		t.Errorf("cold in-fragment report: symbolic %q, symbolicOnly %v", rep.Symbolic, rep.SymbolicOnly)
	}
	if _, err := expr.EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	if rep, err = expr.Explain(ctx); err != nil || rep.Symbolic != "hit" {
		t.Errorf("warm report: symbolic %q (err %v), want hit", rep.Symbolic, err)
	}

	div := db.Rel("N").Div(db.Rel("O"))
	rep, err = div.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SymbolicOnly || rep.Symbolic != "miss" {
		t.Errorf("full-FO report: symbolicOnly %v, symbolic %q", rep.SymbolicOnly, rep.Symbolic)
	}
	if _, err := div.EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	if rep, err = div.Explain(ctx); err != nil || rep.Symbolic != "hit" {
		t.Errorf("warm full-FO report: symbolic %q (err %v), want hit", rep.Symbolic, err)
	}
}

// FuzzSymbolicVsSampling: for random quantifier-free-able expressions,
// the exact VolumeSymbolic (eliminated DNF + inclusion–exclusion) and
// the Monte-Carlo Volume estimate must agree within the estimator's
// tolerance — the differential-testing oracle that generalizes the
// 24-pair alibi agreement suite to arbitrary expressions.
func FuzzSymbolicVsSampling(f *testing.F) {
	// Every seed clears the 0.05 sliver threshold and reaches the
	// comparison: the cut bites both overlapping boxes (0.875), one box
	// (1.845) and misses the other box (2).
	f.Add(0.0, 1.0, 0.5, 2.0, 1.5)
	f.Add(-1.0, 0.5, 0.0, 1.0, 0.1)
	f.Add(0.0, 4.0, 3.0, 4.0, 2.0)
	f.Fuzz(func(t *testing.T, aLo, aHi, bLo, bHi, cut float64) {
		if !(aLo < aHi && bLo < bHi) || aHi-aLo > 100 || bHi-bLo > 100 ||
			math.Abs(aLo) > 100 || math.Abs(bLo) > 100 || math.Abs(cut) > 100 {
			t.Skip()
		}
		db, err := cdb.OpenDatabase(mustAlgebraDB(t, aLo, aHi, bLo, bHi))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ctx := context.Background()
		expr := db.Rel("FA").Union(db.Rel("FB")).
			Where(cdb.NewAtom(cdb.Vector{1, 1}, cut, false)) // x + y <= cut

		exact, err := expr.VolumeSymbolic(ctx)
		if err != nil {
			t.Fatalf("VolumeSymbolic: %v", err)
		}
		est, err := expr.Volume(ctx)
		if err != nil {
			t.Fatalf("Volume: %v", err)
		}
		if exact == 0 {
			if est != 0 {
				t.Fatalf("symbolically empty but sampled volume %g", est)
			}
			return
		}
		// Skip slivers where the (ε=0.25, δ=0.1) estimator's own noise
		// dominates; elsewhere demand agreement within a generous band.
		if exact < 0.05 {
			t.Skip()
		}
		if ratio := est / exact; ratio < 1/1.6 || ratio > 1.6 {
			t.Fatalf("sampled %g vs exact %g (ratio %g) for boxes [%g,%g] [%g,%g] cut %g",
				est, exact, ratio, aLo, aHi, bLo, bHi, cut)
		}
	})
}
