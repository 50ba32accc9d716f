// Reconstruction example: Definition 4.1 set-estimators in action.
// Starting from a query whose result we never compute symbolically, the
// handle draws almost-uniform samples per disjunct (Algorithm 5), builds
// convex hulls, and we measure the quality vol(S Δ Ŝ)/vol(S) against the
// symbolic ground truth — the exact acceptance criterion of the paper's
// Definition 4.1.
package main

import (
	"context"
	"fmt"
	"log"

	cdb "repro"
	"repro/internal/geom"
	"repro/internal/rng"
)

const program = `
# Two observation areas and a corridor between them.
rel Area(x, y) := { 0 <= x <= 2, 0 <= y <= 2 }
                | { 5 <= x <= 7, 0 <= y <= 2 };
rel Corridor(x, y) := { 2 <= x <= 5, 0.8 <= y <= 1.2 };

# Everything reachable: the union (an existential positive query).
query Reach(x, y) := Area(x, y) | Corridor(x, y);
`

func main() {
	db, err := cdb.Open(program)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	reach := db.Rel("Reach")

	for _, n := range []int{50, 200, 1000} {
		est, err := reach.Reconstruct(ctx, n)
		if err != nil {
			log.Fatal(err)
		}
		// Ground truth by symbolic evaluation + exact volume.
		sym, err := reach.EvalSymbolic(ctx)
		if err != nil {
			log.Fatal(err)
		}
		exactVol, err := cdb.ExactVolume(sym)
		if err != nil {
			log.Fatal(err)
		}
		// Definition 4.1's criterion: vol(S Δ Ŝ) relative to vol(S),
		// measured by Monte Carlo over the bounding box.
		lo, hi, _ := sym.BoundingBox()
		for j := range lo {
			lo[j] -= 0.25
			hi[j] += 0.25
		}
		sym2 := sym
		sd := geom.SymmetricDifferenceMC(
			func(p cdb.Vector) bool { return sym2.Contains(p) },
			est.Contains,
			lo, hi, 12000, rng.New(99),
		)
		fmt.Printf("N=%4d per disjunct: %d hulls, %3d hull points, vol(SΔŜ)/vol(S) = %.3f\n",
			n, len(est.Hulls), est.VertexCount(), sd/exactVol)
	}

	fmt.Println("\nthe defect shrinks with N following Lemma 4.1's ln^{d-1}(N)/N envelope;")
	fmt.Printf("exact result volume: %.2f (two areas + corridor)\n", 8+3*0.4)
}
