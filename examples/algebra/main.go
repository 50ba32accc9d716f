// Example algebra: the lazy relational-algebra query surface.
//
// db.Rel returns a lazy expression; combinators (Where, Intersect,
// Union, Minus, Project, TimeSliceAt) build it up without touching any
// geometry, and terminal verbs compile it once into a canonical plan —
// commutative operands sorted, selections pushed into tuples,
// LP-infeasible disjuncts pruned — whose hash keys the handle's
// prepared-sampler cache. Structurally equal expressions, however they
// were built, share one warm entry; provably empty expressions replay
// as O(1) cached verdicts with volume 0.
//
// Run with: go run ./examples/algebra
package main

import (
	"context"
	"fmt"
	"log"

	cdb "repro"
)

// A toy GIS program: land parcels, a flood zone and a moving storm
// cell in space-time (x, y, t).
const program = `
rel parcels(x, y)   := { 0 <= x <= 4, 0 <= y <= 3 } | { 5 <= x <= 8, 0 <= y <= 2 };
rel floodzone(x, y) := { 1 <= x <= 6, 1 <= y <= 4 };
rel reserve(x, y)   := { 10 <= x <= 12, 10 <= y <= 12 };
rel storm(x, y, t)  := { 0 <= t <= 10, t <= x <= t + 2, 0 <= y <= 3 };
`

func main() {
	log.SetFlags(0)
	db, err := cdb.Open(program)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	// Composed query: parcels inside the flood zone, west of x = 5.
	atRisk := db.Rel("parcels").
		Intersect(db.Rel("floodzone")).
		Where(cdb.NewAtom(cdb.Vector{1, 0}, 5, false)) // x <= 5

	// Explain before running: canonical key, normalized plan, cache state.
	rep, err := atRisk.Explain(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)

	v, err := atRisk.Volume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flooded parcel area ≈ %.3g\n", v)

	pts, err := atRisk.SampleN(ctx, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 almost-uniform at-risk points: %.2f\n", pts)

	// The same expression built in the opposite order shares the warm
	// cache entry: no second preparation pass.
	same := db.Rel("floodzone").
		Where(cdb.NewAtom(cdb.Vector{1, 0}, 5, false)).
		Intersect(db.Rel("parcels"))
	rep, err = same.Explain(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reordered expression: cache %s (same key: %v)\n",
		rep.Cache, rep.CanonicalKey == mustKey(atRisk))
	stats := db.CacheStats()
	fmt.Printf("cache stats: %d misses, %d hits\n", stats.Misses, stats.Hits)

	// A provably empty intersection: LP pruning caches the verdict, so
	// Volume is 0 and replays never touch geometry.
	none := db.Rel("parcels").Intersect(db.Rel("reserve"))
	v, err = none.Volume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parcels ∩ reserve: volume %g (provably empty, cached verdict)\n", v)

	// Project away a coordinate (eliminated by Fourier–Motzkin, then
	// sampled warm) and slice the storm cell at t = 3.
	xs, err := db.Rel("parcels").Project("x").SampleN(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("π_x(parcels) samples: %.2f\n", xs)

	slice := db.Rel("storm").TimeSliceAt(3)
	cols, _ := slice.Columns()
	sv, err := slice.Volume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("storm at t=3 over %v: area ≈ %.3g\n", cols, sv)

	// Per-expression option overrides key into the cache, closing the
	// handle-wide-only configuration gap.
	fast, err := atRisk.WithParams(cdb.Params{Gamma: 0.3, Eps: 0.3, Delta: 0.2}).Volume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("looser-parameter estimate ≈ %.3g\n", fast)
}

func mustKey(e *cdb.Expr) string {
	k, err := e.CanonicalKey()
	if err != nil {
		log.Fatal(err)
	}
	return k
}
