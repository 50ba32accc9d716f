package core_test

// Statistical conformance of the hit-and-run generator over H-polytopes:
// seeded volume estimates are judged against Lasserre's exact volume by a
// binomial test at the default δ, and seeded draws against exact cell
// masses by the auditor's ε-tolerance cell test. The checks hold for any
// correct walk, so they guard changes that move sampled values by
// floating-point rounding without pinning any bits. The same two tests
// judge ∃ plans run through the runtime's executor against their
// Fourier–Motzkin (FM) elimination, whichever way the executor serves
// them.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/obs/quality"
	"repro/internal/polytope"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/runtime"
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

// projectionCase is one ∃ plan of the projection conformance check: an
// expression over a database built in code.
type projectionCase struct {
	name string
	db   *constraint.Database
	node *query.Node
}

// schemaOf builds a database holding rels.
func schemaOf(rels ...*constraint.Relation) *constraint.Database {
	db := &constraint.Database{Schema: constraint.Schema{}}
	for _, r := range rels {
		db.Names = append(db.Names, r.Name)
		db.Schema[r.Name] = r
	}
	return db
}

// projectionCases returns ∃x2 of perfbench's d = 3 shape, ∃x2 ∃x3 of
// its d = 4 shape, ∃x2 over a two-tuple union whose projections
// overlap, the surface program's 1-D P(x) := ∃y T(x, y), and ∃x2 of a
// 40-plane tangent ball, whose single FM round pairs 20 upper with 20
// lower bounds: 400 atoms before pruning.
func projectionCases() []projectionCase {
	shape := func(d int) *polytope.Polytope {
		return dataset.RandomPolytope(rng.New(shapeSeed+uint64(d*100+d)), d, d, 0.8)
	}
	x3 := []string{"x0", "x1", "x2"}
	k3 := constraint.MustRelation("K3", x3, shape(3).Tuple())
	k4 := constraint.MustRelation("K4", []string{"x0", "x1", "x2", "x3"}, shape(4).Tuple())
	w := constraint.MustRelation("W", x3, shape(3).Tuple(),
		shape(3).Translate(linalg.Vector{0.5, 0.25, 0.5}).Tuple())
	tri := constraint.MustRelation("T", []string{"x", "y"}, constraint.Simplex(2, 1))
	ball := constraint.MustRelation("B", x3, dataset.TangentBall(40).Tuple())
	return []projectionCase{
		{"exists-x2-shape-d3", schemaOf(k3), query.NewRel("K3").Project("x0", "x1")},
		{"exists-x2x3-shape-d4", schemaOf(k4), query.NewRel("K4").Project("x0", "x1")},
		{"exists-x2-union-overlap", schemaOf(w), query.NewRel("W").Project("x0", "x1")},
		{"surface-P", schemaOf(tri), query.NewRel("T").Project("x")},
		{"exists-x2-tangent-ball", schemaOf(ball), query.NewRel("B").Project("x0", "x1")},
	}
}

// relationCellMasses is cellMasses for a relation: a one-tuple relation
// is a polytope; a union's cell mass is the exact volume of the union
// cut by the cell.
func relationCellMasses(t *testing.T, rel *constraint.Relation, part *quality.Partition, vol float64) []float64 {
	t.Helper()
	if len(rel.Tuples) == 1 {
		return cellMasses(t, polytope.FromTuple(rel.Tuples[0]), part, vol)
	}
	probs := make([]float64, part.Cells())
	for i := range probs {
		lo, hi := part.CellBounds(i)
		cut, err := rel.Intersect(constraint.MustRelation("cell", rel.Vars, constraint.Box(lo, hi)))
		if err != nil {
			t.Fatal(err)
		}
		v, err := polytope.RelationVolume(cut)
		if err != nil {
			t.Fatal(err)
		}
		probs[i] = v / vol
	}
	return probs
}

// TestProjectionConformance judges ∃ plans, run through runtime.Exec,
// against the exact answer of their FM elimination: 20 volume estimates
// under pinned preparation seeds by the binomial test at δ, and, for
// outputs of dimension ≤ 3, a 2,000-point draw by the cell test.
func TestProjectionConformance(t *testing.T) {
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
	opts := core.Options{Params: core.DefaultParams(), Walk: walk.HitAndRun}
	p := opts.Params
	ctx := context.Background()
	for ci, c := range projectionCases() {
		t.Run(c.name, func(t *testing.T) {
			plan, err := c.node.Compile(c.db)
			if err != nil {
				t.Fatal(err)
			}
			cp := query.Canonicalize(plan)
			if !cp.NeedsProjection() {
				t.Fatal("plan eliminates no coordinate")
			}
			exactRel, err := cp.EvalSymbolic("exact")
			if err != nil {
				t.Fatal(err)
			}
			exact, err := polytope.RelationVolume(exactRel)
			if err != nil {
				t.Fatal(err)
			}
			rt := runtime.NewWithSink(runtime.Config{PoolSize: 1}, nil)
			defer rt.Close()
			// Each trial registers the database under its own id, so its
			// pinned preparation seed owns a cache entry of its own.
			exec := func(k int) *runtime.Exec {
				entry, _, err := rt.Registry().RegisterParsed(fmt.Sprintf("%s-%d", c.name, k), "", c.db)
				if err != nil {
					t.Fatal(err)
				}
				prepSeed := uint64(1000*ci + k + 1)
				x, err := rt.Exec(entry, cp, opts, &prepSeed)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			misses := 0
			for k := 0; k < trials; k++ {
				v, err := exec(k).Volume(ctx, nil)
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
			if exactRel.Arity() > 3 {
				return
			}
			lo, hi, ok := exactRel.BoundingBox()
			if !ok {
				t.Fatal("exact relation is unbounded")
			}
			part := quality.NewPartition(lo, hi, maxCells)
			probs := relationCellMasses(t, exactRel, part, exact)
			pts, _, err := exec(trials).SampleN(ctx, draws, 1, uint64(7000+ci))
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, part.Cells())
			for _, x := range pts {
				counts[part.CellOf(x)]++
			}
			if v := quality.CellTest(counts, probs, p.Eps); v.Worst > failZ {
				t.Errorf("cell test: worst z = %.2f in cell %d (count %d, exact mass %.4f), want ≤ %d",
					v.Worst, v.Cell, counts[v.Cell], probs[v.Cell], failZ)
			}
		})
	}
}
