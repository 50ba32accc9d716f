// Package dataset generates the synthetic workloads the experiments run
// on: classic bodies (cubes, simplices, cross-polytopes), random
// sphere-tangent polytopes, rotated and elongated boxes (rounding stress
// tests), dumbbells (the union worst case sketched in Section 4.1.1),
// and a GIS-style land-parcel map (the paper's motivating application
// domain — spatial databases never fix a dataset, so any bounded union
// of convex parcels exercises the same code paths).
package dataset

import (
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// RandomPolytope returns a bounded polytope: the cube [-1, 1]^d cut by m
// random halfspaces tangent to a sphere of radius tangentR (uniformly
// random outer normals). With tangentR < 1 the cuts bite; with
// tangentR ≥ √d they are redundant.
func RandomPolytope(r *rng.RNG, d, m int, tangentR float64) *polytope.Polytope {
	p := polytope.FromTuple(constraint.Cube(d, -1, 1))
	dir := make(linalg.Vector, d)
	for k := 0; k < m; k++ {
		r.OnSphere(dir)
		p = p.WithHalfspace(dir.Clone(), tangentR)
	}
	return p
}

// RandomRotation returns a uniform-ish random orthogonal map (QR of a
// Gaussian matrix via Gram–Schmidt).
func RandomRotation(r *rng.RNG, d int) *linalg.AffineMap {
	cols := make([]linalg.Vector, d)
	for j := 0; j < d; j++ {
		v := make(linalg.Vector, d)
		for i := range v {
			v[i] = r.Normal()
		}
		// Gram–Schmidt against previous columns.
		for k := 0; k < j; k++ {
			v.AddScaled(-v.Dot(cols[k]), cols[k])
		}
		n := v.Norm()
		if n < 1e-9 {
			j-- // retry a degenerate draw
			continue
		}
		cols[j] = v.Scale(1 / n)
	}
	m := linalg.NewMatrix(d, d)
	for j, col := range cols {
		for i, val := range col {
			m.Set(i, j, val)
		}
	}
	am, err := linalg.NewAffineMap(m, make(linalg.Vector, d))
	if err != nil {
		// An orthogonal matrix is always invertible; retry on numerical
		// freak accidents.
		return RandomRotation(r, d)
	}
	return am
}

// RotatedBox returns a randomly rotated axis box with the given
// half-extents — the paper's "very elongated form" rounding stress case
// when the extents are skewed.
func RotatedBox(r *rng.RNG, halfExtents []float64) *polytope.Polytope {
	d := len(halfExtents)
	lo := make(linalg.Vector, d)
	hi := make(linalg.Vector, d)
	for i, h := range halfExtents {
		lo[i] = -h
		hi[i] = h
	}
	box := polytope.FromTuple(constraint.Box(lo, hi))
	return box.Image(RandomRotation(r, d))
}

// Dumbbell returns the union workload of Section 4.1.1's remark: two
// large cubes linked by a thin tube. A direct random walk needs
// exponential time to cross the tube; the union generator (Theorem 4.1)
// is immune. width is the tube's cross-section half-width.
func Dumbbell(d int, sep, width float64) *constraint.Relation {
	vars := make([]string, d)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	left := constraint.Cube(d, -1, 1)
	// Right cube shifted by sep along axis 0.
	lo := make(linalg.Vector, d)
	hi := make(linalg.Vector, d)
	for i := range lo {
		lo[i], hi[i] = -1, 1
	}
	lo[0], hi[0] = sep-2, sep
	right := constraint.Box(lo, hi)
	// Tube along axis 0 between the cubes.
	tlo := make(linalg.Vector, d)
	thi := make(linalg.Vector, d)
	tlo[0], thi[0] = 1, sep-2
	for i := 1; i < d; i++ {
		tlo[i], thi[i] = -width, width
	}
	tube := constraint.Box(tlo, thi)
	return constraint.MustRelation("dumbbell", vars, left, right, tube)
}

// Parcel is one convex land parcel of the GIS map.
type Parcel struct {
	Tuple constraint.Tuple
	Kind  string // "residential", "industrial", "park"
}

// ParcelMap is a synthetic 2-D land-use map: a union of convex parcels
// in [0, extent]^2 with land-use classes, the shape of workload the
// paper's GIS motivation describes.
type ParcelMap struct {
	Extent  float64
	Parcels []Parcel
}

// Kinds lists the land-use classes generated.
var Kinds = []string{"residential", "industrial", "park"}

// NewParcelMap generates n random parcels: axis-aligned rectangles and
// right triangles of random size and class.
func NewParcelMap(r *rng.RNG, n int, extent float64) *ParcelMap {
	m := &ParcelMap{Extent: extent}
	for i := 0; i < n; i++ {
		cx := r.Uniform(0, extent)
		cy := r.Uniform(0, extent)
		w := r.Uniform(extent/40, extent/8)
		h := r.Uniform(extent/40, extent/8)
		kind := Kinds[r.Intn(len(Kinds))]
		lo := linalg.Vector{math.Max(0, cx-w/2), math.Max(0, cy-h/2)}
		hi := linalg.Vector{math.Min(extent, cx+w/2), math.Min(extent, cy+h/2)}
		if hi[0]-lo[0] < 1e-9 || hi[1]-lo[1] < 1e-9 {
			continue
		}
		var tup constraint.Tuple
		if r.Bool() {
			tup = constraint.Box(lo, hi)
		} else {
			// Right triangle: box cut by a diagonal halfspace.
			diag := constraint.NewAtom(linalg.Vector{1 / (hi[0] - lo[0]), 1 / (hi[1] - lo[1])},
				lo[0]/(hi[0]-lo[0])+lo[1]/(hi[1]-lo[1])+1, false)
			tup = constraint.Box(lo, hi).With(diag)
		}
		m.Parcels = append(m.Parcels, Parcel{Tuple: tup, Kind: kind})
	}
	return m
}

// Relation returns the union of all parcels of the given kind ("" for
// all) as a generalized relation over (x, y).
func (m *ParcelMap) Relation(kind string) *constraint.Relation {
	var tuples []constraint.Tuple
	for _, p := range m.Parcels {
		if kind == "" || p.Kind == kind {
			tuples = append(tuples, p.Tuple)
		}
	}
	name := kind
	if name == "" {
		name = "parcels"
	}
	return constraint.MustRelation(name, []string{"x", "y"}, tuples...)
}

// Zone returns a convex query window: the disk-ish octagon centred at
// (cx, cy) with radius rad, as a tuple.
func Zone(cx, cy, rad float64) constraint.Tuple {
	var atoms []constraint.Atom
	for k := 0; k < 8; k++ {
		ang := 2 * math.Pi * float64(k) / 8
		n := linalg.Vector{math.Cos(ang), math.Sin(ang)}
		atoms = append(atoms, constraint.NewAtom(n, n[0]*cx+n[1]*cy+rad, false))
	}
	return constraint.NewTuple(2, atoms...)
}

// HighDimPipeline returns the (d+e)-dimensional convex relation used by
// the projection experiments: a random polytope in R^{d+e} whose
// projection onto the first e coordinates is the query result of
// Proposition 4.3's motivating query φ(x₁..x_e) ≡ ∃x_{e+1}..x_{e+d} R(x̄).
func HighDimPipeline(r *rng.RNG, e, d, cuts int) *polytope.Polytope {
	return RandomPolytope(r, e+d, cuts, 0.9)
}

// TangentBall returns the 3-D polytope cut out by m planes tangent to
// the unit ball at the points of a Fibonacci sphere: a near-ball whose
// outer normals are spread evenly, so about m/2 of its rows bound x₂
// from above and m/2 from below. Eliminating x₂ by Fourier–Motzkin pairs
// every upper row with every lower one (~m²/4 atoms before pruning),
// which makes it the standard input whose elimination blows up after a
// single round.
func TangentBall(m int) *polytope.Polytope {
	golden := math.Pi * (3 - math.Sqrt(5))
	rows := make([]linalg.Vector, m)
	b := make([]float64, m)
	for i := range rows {
		z := 1 - (2*float64(i)+1)/float64(m)
		rad := math.Sqrt(1 - z*z)
		phi := golden * float64(i)
		rows[i] = linalg.Vector{rad * math.Cos(phi), rad * math.Sin(phi), z}
		b[i] = 1
	}
	return polytope.New(rows, b)
}
