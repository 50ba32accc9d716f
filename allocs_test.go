package cdb_test

import (
	"context"
	"testing"

	cdb "repro"
)

// TestSampleNSeededAllocs guards the warm draw's allocation budget: a
// 64-point seeded draw of a cached union binds its generators and walks
// without allocating per step, so the whole request stays within a few
// allocations per point.
func TestSampleNSeededAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, err := cdb.Open(benchAlgebraProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	expr := db.Rel("A").Union(db.Rel("C")).Intersect(db.Rel("B"))
	const n = 64
	if _, err := expr.SampleNSeeded(ctx, n, 1); err != nil { // warm the cache
		t.Fatal(err)
	}
	seed := uint64(2)
	a := testing.AllocsPerRun(20, func() {
		if _, err := expr.SampleNSeeded(ctx, n, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if perPoint := a / n; perPoint > 8 {
		t.Errorf("%.2f allocations per point, want <= 8", perPoint)
	}
}
