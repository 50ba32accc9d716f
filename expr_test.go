package cdb_test

// Tests of the lazy relational-algebra surface: canonical-key stability
// across construction orders, cache sharing between surfaces, negative
// caching of provably empty expressions, per-expression and per-call
// option overrides, and the projection/timeslice operators.

import (
	"context"
	"errors"
	"math"
	"testing"

	cdb "repro"
)

const algebraProgram = `
rel A(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
rel B(x, y) := { 0.5 <= x <= 2, 0 <= y <= 1 };
rel C(x, y) := { 3 <= x <= 4, 0 <= y <= 1 };
rel M(x, t) := { 0 <= x <= 2, 0 <= t <= 10, x <= t };
rel E(x, y) := { x <= 0, x >= 1, 0 <= y <= 1 };
query Q(x)  := exists y. A(x, y);
query QF(x, y) := A(x, y) & x <= 1/2;
`

func openAlgebra(t *testing.T) *cdb.DB {
	t.Helper()
	db, err := cdb.Open(algebraProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestExprCanonicalKeyStability: structurally equal expressions built
// in different operand orders produce identical canonical keys and —
// the acceptance criterion — share a single prepared-sampler cache
// entry, asserted via the handle's cache metrics.
func TestExprCanonicalKeyStability(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	e1 := db.Rel("A").Union(db.Rel("C")).Intersect(db.Rel("B"))
	e2 := db.Rel("B").Intersect(db.Rel("C").Union(db.Rel("A")))
	k1, err := e1.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := e2.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("canonical keys differ across construction orders:\n%s\n%s", k1, k2)
	}

	before := db.CacheStats()
	v1, err := e1.Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mid := db.CacheStats()
	if got := mid.Misses - before.Misses; got != 1 {
		t.Fatalf("first Volume cost %d cache misses, want 1", got)
	}
	v2, err := e2.Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if got := after.Misses - mid.Misses; got != 0 {
		t.Fatalf("structurally equal expression re-prepared: %d extra misses", got)
	}
	if got := after.Hits - mid.Hits; got < 1 {
		t.Fatalf("structurally equal expression did not hit the shared entry (hits +%d)", got)
	}
	if v1 != v2 {
		t.Fatalf("shared prepared geometry must give identical estimates: %g vs %g", v1, v2)
	}
	// ([0,1] ∪ [3,4]) ∩ [0.5,2] = [0.5,1] × [0,1]: area 1/2.
	if math.Abs(v1-0.5) > 0.3 {
		t.Fatalf("volume %g implausible for a set of area 0.5", v1)
	}
}

// TestExprSharesCacheWithNamedTargets: a name-addressed relation and
// the equal algebra expression resolve to one cache entry (the runtime
// keys by canonical plan hash, not name).
func TestExprSharesCacheWithNamedTargets(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	if _, err := db.SampleN(ctx, "A", 4); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	if _, err := db.Rel("A").SampleN(ctx, 4); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("Expr over a warm named relation re-prepared (+%d misses)", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("Expr over a warm named relation did not hit its cache entry")
	}

	// The quantifier-free named query QF and the equivalent expression
	// share an entry, too.
	if _, err := db.SampleN(ctx, "QF", 4); err != nil {
		t.Fatal(err)
	}
	before = db.CacheStats()
	expr := db.Rel("A").Where(cdb.NewAtom(cdb.Vector{1, 0}, 0.5, false))
	if _, err := expr.SampleN(ctx, 4); err != nil {
		t.Fatal(err)
	}
	after = db.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("expression equal to warm query QF re-prepared (+%d misses)", after.Misses-before.Misses)
	}
}

// TestExprEmptyNegative: an LP-infeasible intersection returns volume 0,
// replays as an O(1) cached verdict, and a sweep of distinct empty
// expressions never evicts warm geometry.
func TestExprEmptyNegative(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	// Warm real geometry first.
	if _, err := db.SampleN(ctx, "A", 4); err != nil {
		t.Fatal(err)
	}

	empty := db.Rel("A").Intersect(db.Rel("C")) // [0,1] ∩ [3,4] = ∅
	v, err := empty.Volume(ctx)
	if err != nil || v != 0 {
		t.Fatalf("empty Volume = (%g, %v), want (0, nil)", v, err)
	}
	// The name-addressed path agrees: an empty declared relation has
	// volume 0, not an error.
	if v, err := db.Volume(ctx, "E"); err != nil || v != 0 {
		t.Fatalf("Volume(E) = (%g, %v), want (0, nil)", v, err)
	}
	if _, err := db.SampleN(ctx, "E", 1); !errors.Is(err, cdb.ErrEmptyExpr) {
		t.Fatalf("SampleN(E) = %v, want ErrEmptyExpr", err)
	}
	if _, err := empty.SampleN(ctx, 1); !errors.Is(err, cdb.ErrEmptyExpr) {
		t.Fatalf("SampleN on empty expression = %v, want ErrEmptyExpr", err)
	}

	// Replay: the verdict is served from the cache — hits grow, misses
	// don't.
	before := db.CacheStats()
	replay := db.Rel("C").Intersect(db.Rel("A")) // other operand order, same key
	if v, err := replay.Volume(ctx); err != nil || v != 0 {
		t.Fatalf("replayed empty Volume = (%g, %v), want (0, nil)", v, err)
	}
	after := db.CacheStats()
	if after.Misses != before.Misses {
		t.Fatal("replayed empty expression re-ran the build")
	}
	if after.Hits <= before.Hits {
		t.Fatal("replayed empty expression did not hit the negative entry")
	}

	// A sweep of distinct empty expressions (distinct canonical keys)
	// must not evict the warm geometry of A.
	for i := 0; i < 100; i++ {
		e := db.Rel("A").Intersect(db.Rel("C")).
			Where(cdb.NewAtom(cdb.Vector{1, 0}, float64(i), false))
		if v, err := e.Volume(ctx); err != nil || v != 0 {
			t.Fatalf("sweep %d: Volume = (%g, %v)", i, v, err)
		}
	}
	before = db.CacheStats()
	if _, err := db.SampleN(ctx, "A", 4); err != nil {
		t.Fatal(err)
	}
	after = db.CacheStats()
	if after.Misses != before.Misses {
		t.Fatal("negative sweep evicted warm geometry: re-sampling A paid a cold build")
	}
}

// TestExprOperators exercises Where/Union/Minus/Project/TimeSliceAt
// semantics through volumes and membership.
func TestExprOperators(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	// Minus: [0,1]² \ [0.5,2]×[0,1] = [0,0.5)×[0,1], area 1/2.
	v, err := db.Rel("A").Minus(db.Rel("B")).Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 0.3 {
		t.Fatalf("Minus volume %g, want ≈ 0.5", v)
	}

	// Union of disjoint unit squares: area 2.
	v, err = db.Rel("A").Union(db.Rel("C")).Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 0.8 {
		t.Fatalf("Union volume %g, want ≈ 2", v)
	}

	// Projection: samples of π_x(A) live in [0,1].
	pts, err := db.Rel("A").Project("x").SampleN(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if len(p) != 1 || p[0] < -1e-9 || p[0] > 1+1e-9 {
			t.Fatalf("projected sample %v outside [0,1]", p)
		}
	}

	// TimeSliceAt: M(x, t) with x <= t sliced at t=1 is [0,1] in x.
	sl := db.Rel("M").TimeSliceAt(1)
	cols, err := sl.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "x" {
		t.Fatalf("TimeSliceAt columns = %v, want [x]", cols)
	}
	pts, err = sl.SampleN(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p[0] < -1e-9 || p[0] > 1+1e-9 {
			t.Fatalf("slice sample %v outside [0,1]", p)
		}
	}

	// Where: selection pushes into the tuple.
	pts, err = db.Rel("A").Where(cdb.NewAtom(cdb.Vector{1, 1}, 0.5, false)).SampleN(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p[0]+p[1] > 0.5+1e-9 {
			t.Fatalf("Where sample %v violates x + y <= 0.5", p)
		}
	}

	// Samples iterator over an expression.
	got := 0
	for p, err := range db.Rel("A").Intersect(db.Rel("B")).Samples(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if p[0] < 0.5-1e-9 || p[0] > 1+1e-9 {
			t.Fatalf("intersection sample %v outside [0.5,1]", p)
		}
		if got++; got >= 10 {
			break
		}
	}

	// Reconstruct an expression: hulls cover the intersection.
	est, err := db.Rel("A").Intersect(db.Rel("B")).Reconstruct(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Hulls) == 0 {
		t.Fatal("Reconstruct returned no hulls")
	}
}

// TestExprProjectionFallback: ∃ expressions past the elimination budget
// fall back to a per-call engine for SampleN/Volume and report
// ErrNeedsProjection from Sampler; those within it are served warm.
func TestExprProjectionFallback(t *testing.T) {
	db, err := cdb.Open(algebraProgram + overBudgetProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	far := db.Rel("Far") // exists z. Ball(x, y, z)
	if _, err := far.Sampler(ctx); !errors.Is(err, cdb.ErrNeedsProjection) {
		t.Fatalf("Sampler on an over-budget projection = %v, want ErrNeedsProjection", err)
	}
	pts, err := far.SampleN(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 || len(pts[0]) != 2 {
		t.Fatalf("projection samples %d×%d, want 5×2", len(pts), len(pts[0]))
	}
	v, err := far.Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := far.VolumeSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-exact) > 0.5*exact {
		t.Fatalf("projection volume %g, want ≈ %g", v, exact)
	}

	q := db.Rel("Q") // exists y. A(x, y)
	requireWarmProjection(t, q)
	v, err = q.Volume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 0.5 {
		t.Fatalf("projection volume %g, want ≈ 1", v)
	}
}

// TestExprOptionOverrides: WithWalk/WithParams/WithOptions key into the
// cache — distinct configurations warm distinct entries; equal
// configurations share.
func TestExprOptionOverrides(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	base := db.Rel("A")
	if _, err := base.SampleN(ctx, 4); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	ball := base.WithWalk(cdb.WalkBall)
	if _, err := ball.SampleN(ctx, 4); err != nil {
		t.Fatal(err)
	}
	mid := db.CacheStats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("WithWalk override should warm its own entry (misses +%d, want +1)", mid.Misses-before.Misses)
	}
	// Same override again: shared.
	if _, err := db.Rel("A").WithWalk(cdb.WalkBall).SampleN(ctx, 4); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Misses != mid.Misses {
		t.Fatal("identical WithWalk override re-prepared")
	}
}

// TestDBCallOptions: the per-call overrides on the name-addressed
// methods (the ROADMAP open item) key into the cache the same way.
func TestDBCallOptions(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	if _, err := db.SampleN(ctx, "A", 4); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	if _, err := db.SampleN(ctx, "A", 4, cdb.CallWalk(cdb.WalkBall)); err != nil {
		t.Fatal(err)
	}
	mid := db.CacheStats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("CallWalk override should warm its own entry (misses +%d, want +1)", mid.Misses-before.Misses)
	}
	if _, err := db.Volume(ctx, "A", cdb.CallWalk(cdb.WalkBall)); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Misses != mid.Misses {
		t.Fatal("Volume with the same CallWalk override re-prepared")
	}
	if _, err := db.Sampler(ctx, "A", cdb.CallParams(cdb.Params{Gamma: 0.3, Eps: 0.3, Delta: 0.2})); err != nil {
		t.Fatal(err)
	}
	if got := db.CacheStats().Misses; got != after.Misses+1 {
		t.Fatalf("CallParams override should warm its own entry (misses %d, want %d)", got, after.Misses+1)
	}
}

// TestExprExplain: Explain reports the canonical plan and cache
// residency without preparing geometry; labels transition miss → hit.
func TestExprExplain(t *testing.T) {
	db := openAlgebra(t)
	ctx := context.Background()

	e := db.Rel("A").Intersect(db.Rel("B"))
	rep, err := e.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache != "miss" {
		t.Fatalf("cold Explain cache = %q, want miss", rep.Cache)
	}
	if rep.Empty || rep.NeedsProjection {
		t.Fatalf("unexpected flags: empty=%v proj=%v", rep.Empty, rep.NeedsProjection)
	}
	if len(rep.Disjuncts) != 1 || rep.Disjuncts[0].Kind != "convex" {
		t.Fatalf("disjuncts = %+v", rep.Disjuncts)
	}
	if db.CacheStats().Misses != 0 {
		t.Fatal("Explain populated the cache")
	}

	if _, err := e.SampleN(ctx, 4); err != nil {
		t.Fatal(err)
	}
	rep, err = e.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache != "hit" {
		t.Fatalf("warm Explain cache = %q, want hit", rep.Cache)
	}

	// Empty expressions label "negative" once the verdict is cached.
	empty := db.Rel("A").Intersect(db.Rel("C"))
	if _, err := empty.Volume(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err = empty.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache != "negative" || !rep.Empty {
		t.Fatalf("empty Explain = cache %q empty %v, want negative/true", rep.Cache, rep.Empty)
	}
}

// TestExprCrossHandle: operands from different handles are rejected at
// the terminal, not silently mixed.
func TestExprCrossHandle(t *testing.T) {
	db1 := openAlgebra(t)
	db2 := openAlgebra(t)
	e := db1.Rel("A").Intersect(db2.Rel("B"))
	if _, err := e.Volume(context.Background()); err == nil {
		t.Fatal("cross-handle operands must error")
	}
}

// FuzzExprCanonicalVolume: canonicalization never changes geometry —
// an expression and its operand-permuted twin have equal canonical
// keys and byte-identical volume estimates (they execute the same
// canonical plan under the same cache entry).
func FuzzExprCanonicalVolume(f *testing.F) {
	// The first two seeds cut a non-empty intersection (0.125 and
	// 0.005); the third is empty on purpose — the cut misses the boxes'
	// overlap — so the cached empty verdict answers 0 for both orders.
	f.Add(0.0, 1.0, 0.5, 2.0, 1.5)
	f.Add(-1.0, 0.5, 0.0, 1.0, 0.1)
	f.Add(0.0, 4.0, 3.0, 4.0, 2.0)
	f.Fuzz(func(t *testing.T, aLo, aHi, bLo, bHi, cut float64) {
		// Keep the boxes sane and bounded.
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
		sel := cdb.NewAtom(cdb.Vector{1, 1}, cut, false)

		e1 := db.Rel("FA").Intersect(db.Rel("FB")).Where(sel)
		e2 := db.Rel("FB").Where(sel).Intersect(db.Rel("FA"))
		k1, err1 := e1.CanonicalKey()
		k2, err2 := e2.CanonicalKey()
		if err1 != nil || err2 != nil {
			t.Fatalf("canonical keys: %v / %v", err1, err2)
		}
		if k1 != k2 {
			t.Fatalf("keys differ under operand permutation:\n%s\n%s", k1, k2)
		}
		v1, err1 := e1.Volume(ctx)
		v2, err2 := e2.Volume(ctx)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("volume errors diverge: %v / %v", err1, err2)
		}
		if err1 == nil && v1 != v2 {
			t.Fatalf("canonicalization changed the volume estimate: %g vs %g", v1, v2)
		}
	})
}

// mustAlgebraDB builds the two-box fuzz schema in code.
func mustAlgebraDB(t *testing.T, aLo, aHi, bLo, bHi float64) *cdb.Database {
	t.Helper()
	db := &cdb.Database{Schema: cdb.Schema{}}
	for _, r := range []*cdb.Relation{
		cdb.MustRelation("FA", []string{"x", "y"}, cdb.Box(cdb.Vector{aLo, aLo}, cdb.Vector{aHi, aHi})),
		cdb.MustRelation("FB", []string{"x", "y"}, cdb.Box(cdb.Vector{bLo, bLo}, cdb.Vector{bHi, bHi})),
	} {
		db.Schema[r.Name] = r
		db.Names = append(db.Names, r.Name)
	}
	return db
}
