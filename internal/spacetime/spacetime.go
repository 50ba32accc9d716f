// Package spacetime models moving objects as linear constraint
// relations over (space × time) and evaluates spatio-temporal queries on
// them with the library's uniform generators.
//
// A trajectory is reconstructed from timestamped observations plus a
// speed bound: between two consecutive observations (t_i, p_i) and
// (t_{i+1}, p_{i+1}) the object can only have been inside the
// *space-time prism* (a.k.a. bead)
//
//	{ (x, t) : t_i ≤ t ≤ t_{i+1},
//	           ‖x − p_i‖ ≤ v·(t − t_i),
//	           ‖x − p_{i+1}‖ ≤ v·(t_{i+1} − t) },
//
// the intersection of a forward and a backward speed cone. With a
// polyhedral speed norm (a regular k-gon in the plane, the axis norm in
// other dimensions) every bead is a convex conjunction of linear
// constraints over (x_1..x_d, t), so a trajectory is exactly a
// generalized relation of the paper — a finite union of convex tuples —
// and the whole sampling machinery (union generator, volume estimator,
// prepared samplers, Fourier–Motzkin baseline) applies unchanged.
//
// On top of the model the package provides the two core spatio-temporal
// operators:
//
//   - TimeSlice (slice.go): fix t = t0 and obtain the convex snapshot
//     relation over space — the time-slice operator that FO-complete
//     spatio-temporal query languages are built around.
//   - the alibi query (alibi.go): "could objects A and B have met
//     during [t0, t1]?". MeetRegion builds the meet region and
//     MeetTimesOf answers it symbolically by Fourier–Motzkin
//     elimination; runtime.PrepareAlibi also samples the region and
//     cross-checks the two answers in a Report.
package spacetime

import (
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/linalg"
)

// DefaultFacets is the default number of facets of the planar speed
// polygon. A regular 8-gon circumscribes the Euclidean speed disc
// within 1/cos(π/8) ≈ 1.082 of its radius. More facets sharpen the
// beads at linear sampling cost — but the exact Fourier–Motzkin alibi
// path degrades quickly with facet count (the alibi-query literature's
// point about exact quantifier elimination), whereas the sampling path
// does not.
const DefaultFacets = 8

// Observation is one timestamped position fix of a moving object.
type Observation struct {
	T float64
	P linalg.Vector
}

// Trajectory is a moving object reconstructed from observations: the
// union of the space-time prisms between consecutive fixes under the
// speed bound VMax.
type Trajectory struct {
	Name   string
	VMax   float64
	Facets int // speed-polygon facets (2-D only; see SpeedDirections)
	Obs    []Observation

	dirs []linalg.Vector // unit speed-norm directions, fixed at construction
}

// SpeedDirections returns the outer normals of the polyhedral unit
// speed ball in d spatial dimensions: a regular k-gon for d = 2, the
// segment {±1} for d = 1 and the 2d axis directions (the L∞ ball) for
// d ≥ 3. The polyhedral ball contains the Euclidean unit ball, so the
// beads are conservative supersets of the Euclidean ones — an alibi
// refutation ("they could not have met") under the polyhedral norm is
// also a refutation under the Euclidean norm.
func SpeedDirections(d, facets int) []linalg.Vector {
	switch {
	case d == 1:
		return []linalg.Vector{{1}, {-1}}
	case d == 2:
		if facets < 3 {
			facets = DefaultFacets
		}
		dirs := make([]linalg.Vector, facets)
		for j := range dirs {
			ang := 2 * math.Pi * float64(j) / float64(facets)
			dirs[j] = linalg.Vector{math.Cos(ang), math.Sin(ang)}
		}
		return dirs
	default:
		dirs := make([]linalg.Vector, 0, 2*d)
		for i := 0; i < d; i++ {
			up := make(linalg.Vector, d)
			up[i] = 1
			down := make(linalg.Vector, d)
			down[i] = -1
			dirs = append(dirs, up, down)
		}
		return dirs
	}
}

// NewTrajectory validates the observations (at least two, strictly
// increasing timestamps, consistent dimension, every leg reachable under
// the Euclidean speed bound — which implies polyhedral feasibility) and
// returns the trajectory.
func NewTrajectory(name string, vmax float64, facets int, obs ...Observation) (*Trajectory, error) {
	if len(obs) < 2 {
		return nil, fmt.Errorf("spacetime: trajectory %q needs at least 2 observations, got %d", name, len(obs))
	}
	if vmax <= 0 {
		return nil, fmt.Errorf("spacetime: trajectory %q needs a positive speed bound, got %g", name, vmax)
	}
	d := len(obs[0].P)
	if d == 0 {
		return nil, fmt.Errorf("spacetime: trajectory %q has zero spatial dimension", name)
	}
	for i := 1; i < len(obs); i++ {
		if len(obs[i].P) != d {
			return nil, fmt.Errorf("spacetime: trajectory %q observation %d has dimension %d, want %d",
				name, i, len(obs[i].P), d)
		}
		dt := obs[i].T - obs[i-1].T
		if dt <= 0 {
			return nil, fmt.Errorf("spacetime: trajectory %q timestamps not strictly increasing at observation %d", name, i)
		}
		if dist := obs[i].P.Dist(obs[i-1].P); dist > vmax*dt*(1+1e-9) {
			return nil, fmt.Errorf("spacetime: trajectory %q leg %d needs speed %g > bound %g",
				name, i, dist/dt, vmax)
		}
	}
	return &Trajectory{
		Name: name, VMax: vmax, Facets: facets, Obs: obs,
		// Computed eagerly so a shared *Trajectory is safe for
		// concurrent Bead/Relation calls.
		dirs: SpeedDirections(d, facets),
	}, nil
}

// SpatialDim returns the number of spatial coordinates.
func (tr *Trajectory) SpatialDim() int { return len(tr.Obs[0].P) }

// Beads returns the number of space-time prisms (legs).
func (tr *Trajectory) Beads() int { return len(tr.Obs) - 1 }

// Support returns the time span [first, last] covered by the trajectory.
func (tr *Trajectory) Support() (t0, t1 float64) {
	return tr.Obs[0].T, tr.Obs[len(tr.Obs)-1].T
}

func (tr *Trajectory) directions() []linalg.Vector {
	if tr.dirs == nil {
		// A Trajectory built by literal rather than NewTrajectory; no
		// concurrency guarantee is owed there.
		tr.dirs = SpeedDirections(tr.SpatialDim(), tr.Facets)
	}
	return tr.dirs
}

// Bead returns leg i (between observations i and i+1) as a generalized
// tuple over (x_1..x_d, t): the time window plus, for every speed-ball
// direction n, the forward cone n·(x − p_i) ≤ v·(t − t_i) and the
// backward cone n·(x − p_{i+1}) ≤ v·(t_{i+1} − t).
func (tr *Trajectory) Bead(i int) constraint.Tuple {
	if i < 0 || i >= tr.Beads() {
		panic(fmt.Sprintf("spacetime: trajectory %q has no bead %d", tr.Name, i))
	}
	d := tr.SpatialDim()
	lo, hi := tr.Obs[i], tr.Obs[i+1]
	atoms := make([]constraint.Atom, 0, 2+2*len(tr.directions()))

	// t ≤ t_{i+1} and −t ≤ −t_i.
	up := make(linalg.Vector, d+1)
	up[d] = 1
	atoms = append(atoms, constraint.NewAtom(up, hi.T, false))
	down := make(linalg.Vector, d+1)
	down[d] = -1
	atoms = append(atoms, constraint.NewAtom(down, -lo.T, false))

	for _, n := range tr.directions() {
		// Forward cone: n·x − v·t ≤ n·p_i − v·t_i.
		fwd := make(linalg.Vector, d+1)
		copy(fwd, n)
		fwd[d] = -tr.VMax
		atoms = append(atoms, constraint.NewAtom(fwd, n.Dot(lo.P)-tr.VMax*lo.T, false))
		// Backward cone: n·x + v·t ≤ n·p_{i+1} + v·t_{i+1}.
		bwd := make(linalg.Vector, d+1)
		copy(bwd, n)
		bwd[d] = tr.VMax
		atoms = append(atoms, constraint.NewAtom(bwd, n.Dot(hi.P)+tr.VMax*hi.T, false))
	}
	return constraint.NewTuple(d+1, atoms...)
}

// Vars returns the column names of the trajectory relation: the spatial
// coordinates followed by TimeVar.
func (tr *Trajectory) Vars() []string {
	d := tr.SpatialDim()
	vars := make([]string, d+1)
	for i := 0; i < d; i++ {
		vars[i] = spatialVar(i, d)
	}
	vars[d] = TimeVar
	return vars
}

// spatialVar names spatial column i: x, y, z for d ≤ 3, x0.. otherwise.
func spatialVar(i, d int) string {
	if d <= 3 {
		return [...]string{"x", "y", "z"}[i]
	}
	return fmt.Sprintf("x%d", i)
}

// Relation returns the trajectory as a generalized relation over
// (x_1..x_d, t): the union of its beads. The result plugs directly into
// the library's samplers, volume estimators and the Fourier–Motzkin
// path, and Relation().Source() renders it as a registrable program
// declaration.
func (tr *Trajectory) Relation() *constraint.Relation {
	tuples := make([]constraint.Tuple, tr.Beads())
	for i := range tuples {
		tuples[i] = tr.Bead(i)
	}
	return constraint.MustRelation(tr.Name, tr.Vars(), tuples...)
}
