package cdb_test

// Benchmarks of the algebra surface: a composed expression served warm
// from the canonical-plan cache, plus the O(1) replay of a provably
// empty expression.

import (
	"context"
	"testing"

	cdb "repro"
)

// The 4D composed workload: in R^4 the preparation pass (rounding,
// well-boundedness witnesses, telescoping volume estimates per tuple)
// dominates, which is exactly the cost the canonical-plan cache
// amortises.
const benchAlgebraProgram = `
rel A(x, y, z, w) := { 0 <= x <= 1, 0 <= y <= 1, 0 <= z <= 1, 0 <= w <= 1 };
rel B(x, y, z, w) := { 0.25 <= x <= 2, 0 <= y <= 1, 0 <= z <= 1, 0 <= w <= 1 };
rel C(x, y, z, w) := { 1.5 <= x <= 3, 0 <= y <= 1, 0 <= z <= 1, 0 <= w <= 1 };
`

const benchComposedN = 16

// BenchmarkExprComposedWarm: the composed expression (A ∪ C) ∩ B
// sampled through the warm canonical-plan cache — the per-request cost
// is one cache lookup plus generator binds.
func BenchmarkExprComposedWarm(b *testing.B) {
	db, err := cdb.Open(benchAlgebraProgram)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	expr := db.Rel("A").Union(db.Rel("C")).Intersect(db.Rel("B"))
	if _, err := expr.SampleN(ctx, benchComposedN); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.SampleNSeeded(ctx, benchComposedN, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExprEmptyReplay: a provably empty expression replayed
// against its cached negative verdict — volume 0 in O(1), no geometry
// touched.
func BenchmarkExprEmptyReplay(b *testing.B) {
	db, err := cdb.Open(benchAlgebraProgram)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	empty := db.Rel("A").Intersect(db.Rel("C"))
	if v, err := empty.Volume(ctx); err != nil || v != 0 {
		b.Fatalf("warmup: (%g, %v)", v, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := empty.Volume(ctx); err != nil || v != 0 {
			b.Fatal(v, err)
		}
	}
}
