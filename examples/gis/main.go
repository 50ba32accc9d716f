// GIS example: the paper motivates sampling with Geographical
// Information Systems, where many applications are statistical. This
// example builds a synthetic land-parcel map (a union of convex
// parcels with land-use classes), then answers approximate aggregate
// queries by sampling — no exact geometric computation anywhere:
//
//   - total residential area (volume estimation, Theorem 4.2),
//   - the share of an inspection zone covered by industry
//     (intersection, Proposition 4.1),
//   - the mean distance of park area from the city centre
//     (aggregate over uniform samples).
package main

import (
	"fmt"
	"log"
	"math"

	cdb "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
)

func main() {
	r := rng.New(2006)
	m := dataset.NewParcelMap(r, 60, 100)
	fmt.Printf("synthetic map: %d parcels on a 100x100 grid\n\n", len(m.Parcels))

	// 1. Total area by land-use class, with exact ground truth from the
	//    fixed-dimension algorithm where feasible. Each class is prepared
	//    once (rounding, volume phases); the questions below bind fresh
	//    generators to the same geometry.
	prepared := map[string]*cdb.PreparedSampler{}
	for _, kind := range dataset.Kinds {
		rel := m.Relation(kind)
		if len(rel.Tuples) == 0 {
			continue
		}
		ps, err := cdb.PrepareSampler(rel, 1, cdb.DefaultOptions())
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		prepared[kind] = ps
		est, err := ps.Volume(1)
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		exactStr := "n/a (too many tuples for inclusion-exclusion)"
		if len(rel.Tuples) <= 18 {
			if exact, err := cdb.ExactVolume(rel); err == nil {
				exactStr = fmt.Sprintf("%.1f", exact)
			}
		}
		fmt.Printf("%-12s area ≈ %8.1f   (exact %s)\n", kind, est, exactStr)
	}

	// 2. How much of the inspection zone around (50, 50) is industrial?
	//    Sample the industrial relation, test zone membership: the
	//    rejection estimator of Proposition 4.1.
	zone := dataset.Zone(50, 50, 25)
	gen, err := prepared["industrial"].NewObservable(2)
	if err != nil {
		log.Fatal(err)
	}
	inZone, n := 0, 4000
	for i := 0; i < n; i++ {
		p, err := gen.Sample()
		if err != nil {
			log.Fatal(err)
		}
		if zone.Contains(p) {
			inZone++
		}
	}
	indArea, _ := gen.Volume()
	fmt.Printf("\ninspection zone: industrial overlap ≈ %.1f area units (%.1f%% of industrial land)\n",
		indArea*float64(inZone)/float64(n), 100*float64(inZone)/float64(n))

	// 3. Mean distance of park land from the centre — an aggregate the
	//    paper's introduction calls out (statistical analysis over
	//    spatial data).
	pgen, err := prepared["park"].NewObservable(3)
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	for i := 0; i < n; i++ {
		p, err := pgen.Sample()
		if err != nil {
			log.Fatal(err)
		}
		sum += math.Hypot(p[0]-50, p[1]-50)
	}
	fmt.Printf("mean distance of park land from centre ≈ %.1f units\n", sum/float64(n))
}
