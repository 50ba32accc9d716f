package spacetime

import (
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/lp"
)

// Interval is a closed time interval [Lo, Hi].
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Report is the outcome of an alibi query "could A and B have met during
// [t0, t1]?", answered two independent ways:
//
//   - Meet: the sampling verdict — the meet region has positive measure
//     under the paper's volume estimator, with Volume its meeting-volume
//     estimate (relative error ε with confidence 1−δ from the Options,
//     amplified by a median of k independent preparations when k > 1).
//   - SymbolicMeet: the Fourier–Motzkin verdict — spatial coordinates
//     eliminated exactly, leaving the meeting-time intervals.
//
// Consistent reports whether the two verdicts agree; they can disagree
// only on degenerate (measure-zero) contacts, where the symbolic path
// sees a grazing touch the sampler cannot.
type Report struct {
	Meet         bool       `json:"meet"`
	SymbolicMeet bool       `json:"symbolic_meet"`
	Consistent   bool       `json:"consistent"`
	Volume       float64    `json:"volume"`
	RelErr       float64    `json:"rel_err"`
	Confidence   float64    `json:"confidence"`
	MeetTimes    []Interval `json:"meet_times,omitempty"`
	RegionTuples int        `json:"region_tuples"`
	PrunedTuples int        `json:"pruned_tuples"` // degenerate tuples dropped before sampling
	Window       Interval   `json:"window"`
}

// MeetRegion returns the set of (x, t) with t ∈ [t0, t1] where both
// relations hold — the conjunction A ∧ B ∧ (t0 ≤ t ≤ t1) as a
// generalized relation. Both relations must share the arity and time
// column convention.
func MeetRegion(a, b *constraint.Relation, timeCol int, t0, t1 float64) (*constraint.Relation, error) {
	if a.Arity() != b.Arity() {
		return nil, fmt.Errorf("spacetime: alibi arity mismatch: %q has %d columns, %q has %d",
			a.Name, a.Arity(), b.Name, b.Arity())
	}
	// Intersection is positional, so the relations must agree on what
	// each column means — permuted frames (a(x, y, t) vs b(t, x, y))
	// would silently treat one object's time as the other's position.
	for i, v := range a.Vars {
		if b.Vars[i] != v {
			return nil, fmt.Errorf("spacetime: alibi column mismatch: %q has columns %v, %q has %v",
				a.Name, a.Vars, b.Name, b.Vars)
		}
	}
	m, err := a.Intersect(b)
	if err != nil {
		return nil, err
	}
	m.Name = fmt.Sprintf("meet(%s,%s)", a.Name, b.Name)
	return TimeWindow(m, timeCol, t0, t1)
}

// MeetTimesOf eliminates the spatial coordinates of a meet region (see
// MeetRegion) by Fourier–Motzkin and returns the exact meeting-time
// intervals, merged and sorted. An empty slice means the objects
// provably could not have met — the alibi holds. It simplifies region's
// tuples in place (RemoveRedundant preserves the denoted set).
func MeetTimesOf(region *constraint.Relation, timeCol int) []Interval {
	// Pre-prune each conjunction to its minimal facet description —
	// intersecting two beads duplicates window and near-parallel cone
	// atoms, and Fourier–Motzkin's blow-up is quadratic per eliminated
	// variable in whatever survives.
	for i, t := range region.Tuples {
		region.Tuples[i] = constraint.RemoveRedundant(t)
	}
	spatial := make([]int, 0, region.Arity()-1)
	for j := 0; j < region.Arity(); j++ {
		if j != timeCol {
			spatial = append(spatial, j)
		}
	}
	times := constraint.EliminateAll(region, spatial, constraint.EliminateOptions{})
	return intervals1D(times)
}

// intervals1D reads each non-empty tuple of a 1-D relation as a closed
// interval and merges overlaps.
func intervals1D(rel *constraint.Relation) []Interval {
	var out []Interval
	for _, t := range rel.Tuples {
		a, b := t.System()
		lo, hi, ok := polytopeInterval(a, b)
		if !ok {
			continue
		}
		out = append(out, Interval{Lo: lo, Hi: hi})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && iv.Lo <= merged[n-1].Hi+1e-12 {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// polytopeInterval bounds a 1-D constraint system by two LPs; ok is
// false for infeasible or unbounded systems.
func polytopeInterval(a []linalg.Vector, b []float64) (lo, hi float64, ok bool) {
	hi, okHi := lp.Extent(a, b, linalg.Vector{1})
	negLo, okLo := lp.Extent(a, b, linalg.Vector{-1})
	if !okHi || !okLo {
		return 0, 0, false
	}
	return -negLo, hi, true
}
