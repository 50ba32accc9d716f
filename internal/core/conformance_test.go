package core_test

// Statistical conformance of the hit-and-run generator over H-polytopes:
// seeded volume estimates are judged against Lasserre's exact volume by a
// binomial test at the default δ, and seeded draws against exact cell
// masses by the auditor's ε-tolerance cell test. The checks hold for any
// correct walk, so they guard changes that move sampled values by
// floating-point rounding without pinning any bits.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/obs/quality"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

// shapeSeed is the dataset seed of perfbench's convex shapes, so the
// shapes below are the bodies the benchmark walks.
const shapeSeed = 20001016

type conformanceBody struct {
	name string
	poly *polytope.Polytope
}

// conformanceBodies returns perfbench's shapes at d = 2, 3, 4, 6, a
// rotated 2-D slab of width 10⁻² and the 3-D shape translated by 10⁴ in
// every coordinate.
func conformanceBodies() []conformanceBody {
	shape := func(d int) *polytope.Polytope {
		return dataset.RandomPolytope(rng.New(shapeSeed+uint64(d*100+d)), d, d, 0.8)
	}
	var out []conformanceBody
	for _, d := range []int{2, 3, 4, 6} {
		out = append(out, conformanceBody{fmt.Sprintf("shape-d%d", d), shape(d)})
	}
	c, s := math.Cos(0.5), math.Sin(0.5)
	slab := polytope.New([]linalg.Vector{{c, s}, {-c, -s}, {-s, c}, {s, -c}},
		[]float64{0.005, 0.005, 1, 1})
	out = append(out, conformanceBody{"thin-slab", slab})
	out = append(out, conformanceBody{"far-shape-d3", shape(3).Translate(linalg.Vector{1e4, 1e4, 1e4})})
	return out
}

// binomialTail returns P(Binomial(n, p) ≥ k).
func binomialTail(n, k int, p float64) float64 {
	var tail float64
	for i := k; i <= n; i++ {
		lc, _ := math.Lgamma(float64(n + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		tail += math.Exp(lc - li - lr + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return tail
}

// cellMasses returns the exact probability of each partition cell under
// the uniform distribution on poly (Lasserre volume of poly ∩ cell).
func cellMasses(t *testing.T, poly *polytope.Polytope, part *quality.Partition, vol float64) []float64 {
	t.Helper()
	probs := make([]float64, part.Cells())
	for i := range probs {
		lo, hi := part.CellBounds(i)
		v, err := poly.Intersect(polytope.FromTuple(constraint.Box(lo, hi))).Volume()
		if err != nil {
			t.Fatal(err)
		}
		probs[i] = v / vol
	}
	return probs
}

func TestPolytopeWalkConformance(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("statistical conformance runs uninstrumented; -race only slows the walks")
	}
	const (
		trials   = 20
		draws    = 2000
		alpha    = 0.01 // false-alarm rate of the volume test
		failZ    = 4    // the auditor's fail threshold for the cell test
		maxCells = 16
	)
	opts := core.Options{Walk: walk.HitAndRun}
	p := core.DefaultParams()
	for bi, b := range conformanceBodies() {
		t.Run(b.name, func(t *testing.T) {
			exact, err := b.poly.Volume()
			if err != nil {
				t.Fatal(err)
			}
			misses := 0
			var pc *core.PreparedConvex
			for k := 0; k < trials; k++ {
				pc, err = core.PrepareConvexPolytope(b.poly, rng.New(uint64(1000*bi+k+1)), opts)
				if err != nil {
					t.Fatal(err)
				}
				c, err := pc.Bind(rng.New(uint64(k + 1)))
				if err != nil {
					t.Fatal(err)
				}
				v, err := c.Volume()
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(v-exact) > p.Eps*exact {
					misses++
				}
			}
			if tail := binomialTail(trials, misses, p.Delta); tail < alpha {
				t.Errorf("%d of %d volumes outside (1±%g)·%g: P(Binomial(%d, %g) ≥ %d) = %.2g < %g",
					misses, trials, p.Eps, exact, trials, p.Delta, misses, tail, alpha)
			}
			if b.poly.Dim() > 3 {
				return
			}
			lo, hi, err := b.poly.BoundingBox()
			if err != nil {
				t.Fatal(err)
			}
			part := quality.NewPartition(lo, hi, maxCells)
			probs := cellMasses(t, b.poly, part, exact)
			c, err := pc.Bind(rng.New(uint64(7000 + bi)))
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, part.Cells())
			for i := 0; i < draws; i++ {
				x, err := c.Sample()
				if err != nil {
					t.Fatal(err)
				}
				counts[part.CellOf(x)]++
			}
			if v := quality.CellTest(counts, probs, p.Eps); v.Worst > failZ {
				t.Errorf("cell test: worst z = %.2f in cell %d (count %d, exact mass %.4f), want ≤ %d",
					v.Worst, v.Cell, counts[v.Cell], probs[v.Cell], failZ)
			}
		})
	}
}
