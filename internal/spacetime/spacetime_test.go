package spacetime

import (
	"math"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// fastOpts keeps volume passes short so the suite stays quick.
func fastOpts() core.Options {
	return core.Options{MaxPhaseSamples: 200}
}

// prepareAndBind is the one-off sampler for rel: core.PrepareRelation
// and Bind, both drawing from r.
func prepareAndBind(rel *constraint.Relation, r *rng.RNG) (core.Observable, error) {
	p, err := core.PrepareRelation(rel, r, fastOpts())
	if err != nil {
		return nil, err
	}
	return p.Bind(r)
}

// commuter is a simple 2-D trajectory: origin → (10, 0) → (10, 10) over
// t ∈ [0, 10] with a generous speed bound.
func commuter(t *testing.T) *Trajectory {
	t.Helper()
	tr, err := NewTrajectory("A", 2.5, 0,
		Observation{T: 0, P: linalg.Vector{0, 0}},
		Observation{T: 5, P: linalg.Vector{10, 0}},
		Observation{T: 10, P: linalg.Vector{10, 10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrajectoryValidation(t *testing.T) {
	p := linalg.Vector{0, 0}
	if _, err := NewTrajectory("T", 1, 0, Observation{T: 0, P: p}); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := NewTrajectory("T", 0, 0, Observation{T: 0, P: p}, Observation{T: 1, P: p}); err == nil {
		t.Error("zero speed bound should fail")
	}
	if _, err := NewTrajectory("T", 1, 0, Observation{T: 1, P: p}, Observation{T: 1, P: p}); err == nil {
		t.Error("non-increasing timestamps should fail")
	}
	if _, err := NewTrajectory("T", 1, 0,
		Observation{T: 0, P: linalg.Vector{0, 0}},
		Observation{T: 1, P: linalg.Vector{5, 0}}); err == nil {
		t.Error("unreachable leg (speed 5 > bound 1) should fail")
	}
	if _, err := NewTrajectory("T", 1, 0,
		Observation{T: 0, P: linalg.Vector{0, 0}},
		Observation{T: 1, P: linalg.Vector{0, 0, 0}}); err == nil {
		t.Error("mixed dimensions should fail")
	}
}

func TestTrajectoryRelationShape(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	if got, want := rel.Arity(), 3; got != want {
		t.Fatalf("arity = %d, want %d", got, want)
	}
	if got := rel.Vars; got[0] != "x" || got[1] != "y" || got[2] != "t" {
		t.Fatalf("vars = %v", got)
	}
	if got, want := len(rel.Tuples), tr.Beads(); got != want {
		t.Fatalf("tuples = %d, want %d beads", got, want)
	}
	// Observations themselves are in the relation; far-away points are not.
	for _, o := range tr.Obs {
		pt := append(o.P.Clone(), o.T)
		if !rel.Contains(pt) {
			t.Errorf("observation %v not contained", pt)
		}
	}
	if rel.Contains(linalg.Vector{50, 50, 5}) {
		t.Error("unreachable point contained")
	}
	// The midpoint of a leg at its mid-time is reachable.
	if !rel.Contains(linalg.Vector{5, 0, 2.5}) {
		t.Error("leg midpoint not contained")
	}
	// Round-trip through the parser: the trajectory is a plain program.
	src := rel.Source()
	if !strings.Contains(src, "rel A(x, y, t)") {
		t.Fatalf("source header: %s", src[:40])
	}
	back, err := constraint.ParseRelation(strings.TrimPrefix(src, "rel "), nil)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.Arity() != 3 || len(back.Tuples) != len(rel.Tuples) {
		t.Fatalf("round-trip changed shape: %v", back)
	}
}

func TestSpeedDirections(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		dirs := SpeedDirections(d, 0)
		if len(dirs) == 0 {
			t.Fatalf("d=%d: no directions", d)
		}
		for _, n := range dirs {
			if len(n) != d {
				t.Fatalf("d=%d: direction %v has wrong dim", d, n)
			}
			if math.Abs(n.Norm()-1) > 1e-12 {
				t.Errorf("d=%d: direction %v not unit", d, n)
			}
		}
	}
	if got := len(SpeedDirections(2, 12)); got != 12 {
		t.Errorf("k-gon facets = %d, want 12", got)
	}
}

func TestTrajectorySamplesStayInBeads(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	obs, err := prepareAndBind(rel, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tr.Support()
	for i := 0; i < 50; i++ {
		x, err := obs.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Contains(x) {
			t.Fatalf("sample %v outside the trajectory", x)
		}
		if ts := x[2]; ts < lo-1e-9 || ts > hi+1e-9 {
			t.Fatalf("sample time %g outside support [%g, %g]", ts, lo, hi)
		}
	}
}

func TestTimeSliceSnapshot(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	tc := TimeColumn(rel)
	if tc != 2 {
		t.Fatalf("time column = %d, want 2", tc)
	}

	// Slice in the middle of leg 0: the snapshot is the intersection of
	// the two speed balls, a full-dimensional convex set around (5, 0).
	slice, err := TimeSlice(rel, tc, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if slice.Arity() != 2 {
		t.Fatalf("slice arity = %d", slice.Arity())
	}
	if len(slice.Tuples) == 0 {
		t.Fatal("interior slice is empty")
	}
	if !slice.Contains(linalg.Vector{5, 0}) {
		t.Error("snapshot misses the expected position (5, 0)")
	}
	if slice.Contains(linalg.Vector{10, 10}) {
		t.Error("snapshot contains an unreachable position")
	}
	// Slice membership agrees with space-time membership on a grid.
	for _, x := range []float64{2, 5, 8} {
		for _, y := range []float64{-2, 0, 2} {
			p2, p3 := linalg.Vector{x, y}, linalg.Vector{x, y, 2.5}
			if slice.Contains(p2) != rel.Contains(p3) {
				t.Errorf("slice/space-time membership disagree at (%g, %g)", x, y)
			}
		}
	}

	// The snapshot samples and has positive area.
	obs, err := prepareAndBind(slice, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := obs.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("snapshot area = %g, want > 0", v)
	}
}

func TestTimeSliceDegenerate(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	tc := TimeColumn(rel)

	// t0 outside the support: empty relation, zero tuples.
	for _, t0 := range []float64{-5, 10.001, 999} {
		slice, err := TimeSlice(rel, tc, t0)
		if err != nil {
			t.Fatalf("t0=%g: %v", t0, err)
		}
		if len(slice.Tuples) != 0 {
			t.Fatalf("t0=%g: slice has %d tuples, want empty", t0, len(slice.Tuples))
		}
		if !slice.IsEmpty() {
			t.Fatalf("t0=%g: slice not empty", t0)
		}
		// The sampler reports a clean error, not a panic.
		if _, err := prepareAndBind(slice, rng.New(1)); err == nil {
			t.Fatalf("t0=%g: sampler on empty slice should fail", t0)
		}
	}

	// Exactly at an observation time the snapshot is a single point:
	// feasible but measure-zero, so the sampler must reject it cleanly.
	slice, err := TimeSlice(rel, tc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(slice.Tuples) == 0 {
		t.Fatal("slice at an observation time should contain the point")
	}
	if !slice.Contains(linalg.Vector{0, 0}) {
		t.Error("slice at t=0 should contain the origin")
	}
	if _, err := prepareAndBind(slice, rng.New(1)); err == nil {
		t.Error("sampler on a point slice should fail cleanly")
	}
}

func TestTimeSliceErrors(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	if _, err := TimeSlice(rel, -1, 0); err == nil {
		t.Error("negative time column should fail")
	}
	if _, err := TimeSlice(rel, 3, 0); err == nil {
		t.Error("out-of-range time column should fail")
	}
	one := constraint.MustRelation("I", []string{"t"}, constraint.Cube(1, 0, 1))
	if _, err := TimeSlice(one, 0, 0.5); err == nil {
		t.Error("slicing a 1-D relation should fail (no spatial coordinates)")
	}
}

func TestPruneThin(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	tc := TimeColumn(rel)

	// A window ending exactly at the observation time t = 5 clips leg 1
	// to the flat plane t = 5: feasible, but measure zero.
	w, err := TimeWindow(rel, tc, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tuples) != 2 {
		t.Fatalf("window [1, 5] keeps %d tuples, want 2 (one flat)", len(w.Tuples))
	}
	fat, pruned := PruneThin(w, 0)
	if pruned != 1 || len(fat.Tuples) != 1 {
		t.Fatalf("PruneThin dropped %d, kept %d; want 1/1", pruned, len(fat.Tuples))
	}
	// The survivor samples fine.
	if _, err := prepareAndBind(fat, rng.New(1)); err != nil {
		t.Fatalf("pruned window should be samplable: %v", err)
	}

	// A slice exactly at an observation time is all-thin.
	slice, err := TimeSlice(rel, tc, 5)
	if err != nil {
		t.Fatal(err)
	}
	fat, pruned = PruneThin(slice, 0)
	if len(fat.Tuples) != 0 || pruned != len(slice.Tuples) {
		t.Fatalf("observation-time slice: kept %d, pruned %d", len(fat.Tuples), pruned)
	}
}

func TestTimeWindowAndSupport(t *testing.T) {
	tr := commuter(t)
	rel := tr.Relation()
	tc := TimeColumn(rel)

	lo, hi, ok := Support(rel, tc)
	if !ok || math.Abs(lo-0) > 1e-6 || math.Abs(hi-10) > 1e-6 {
		t.Fatalf("support = [%g, %g] ok=%v, want [0, 10]", lo, hi, ok)
	}

	w, err := TimeWindow(rel, tc, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tuples) != 1 {
		t.Fatalf("window [1,4] should keep only leg 0, got %d tuples", len(w.Tuples))
	}
	if _, err := TimeWindow(rel, tc, 4, 1); err == nil {
		t.Error("inverted window should fail")
	}
	w, err = TimeWindow(rel, tc, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tuples) != 0 {
		t.Error("disjoint window should be empty")
	}
}
