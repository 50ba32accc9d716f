// Quickstart: open a constraint database, draw almost-uniform samples
// from a relation, and estimate its volume — the two primitives the
// paper builds everything on.
package main

import (
	"context"
	"fmt"
	"log"

	cdb "repro"
)

const program = `
# A generalized relation: the union of a triangle and a square
# (a linear-constraint DNF, as in Kanellakis-Kuper-Revesz).
rel Region(x, y) := { x >= 0, y >= 0, x + y <= 1 }
                  | { 2 <= x <= 3, 0 <= y <= 1 };

# A query: the horizontal extent of the region.
query Extent(x) := exists y. Region(x, y);
`

func main() {
	db, err := cdb.Open(program)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	region := db.Rel("Region")

	// 1. Almost-uniform samples from the relation's (γ, ε, δ)-generator
	//    (Dyer–Frieze–Kannan walks per tuple under the union combinator).
	pts, err := region.SampleNSeeded(ctx, 5, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("five almost-uniform samples of Region:")
	for _, p := range pts {
		fmt.Printf("  (%.3f, %.3f)\n", p[0], p[1])
	}

	// 2. A relative (ε, δ)-volume estimate vs the exact fixed-dimension
	//    computation (Lemma 3.1): triangle 0.5 + square 1.0 = 1.5.
	est, err := region.Volume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	rel, _ := db.Database().Relation("Region")
	exact, err := cdb.ExactVolume(rel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvolume: estimated %.4f, exact %.4f\n", est, exact)

	// 3. Query evaluation without quantifier elimination: the sampling
	//    plan estimates the volume of ∃y Region(x, y) = [0,1] ∪ [2,3].
	qv, err := db.Rel("Extent").Volume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extent length: estimated %.4f (exact 2.0)\n", qv)
}
