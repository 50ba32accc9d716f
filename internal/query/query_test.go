package query

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/walk"
)

func fastOpts() core.Options {
	return core.Options{
		Params: core.Params{Gamma: 0.25, Eps: 0.3, Delta: 0.1},
		Walk:   walk.HitAndRun,
	}
}

func mustParse(t *testing.T, src string) *constraint.Database {
	t.Helper()
	db, err := constraint.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// observableOf builds the per-call generator for a named target,
// planned by the algebra compiler every surface plans with.
func observableOf(db *constraint.Database, name string, seed uint64) (core.Observable, error) {
	plan, err := NewRel(name).Compile(db)
	if err != nil {
		return nil, err
	}
	return NewEngine(db.Schema, fastOpts(), seed).ObservableFromPlan(plan)
}

// volumeOf is the sampling-based volume of a named target.
func volumeOf(t *testing.T, db *constraint.Database, name string, seed uint64) float64 {
	t.Helper()
	obs, err := observableOf(db, name, seed)
	if err != nil {
		t.Fatal(err)
	}
	v, err := obs.Volume()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// symbolicOf evaluates a named target by quantifier elimination.
func symbolicOf(t *testing.T, db *constraint.Database, name string) *constraint.Relation {
	t.Helper()
	sq, err := NewRel(name).CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sq.Eval()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// queryDB wraps a hand-built query in a database over schema.
func queryDB(schema constraint.Schema, q constraint.Query) *constraint.Database {
	return &constraint.Database{Schema: schema, Queries: []constraint.Query{q}}
}

func TestEvalSymbolicMatchesParser(t *testing.T) {
	db := mustParse(t, `
		rel S(x, y) := { 0 <= x <= 2, 0 <= y <= 2 };
		query Q(x) := exists y. S(x, y);
	`)
	rel := symbolicOf(t, db, "Q")
	if !rel.Contains(linalg.Vector{1}) || rel.Contains(linalg.Vector{3}) {
		t.Error("symbolic projection wrong")
	}
}

func TestPlanConvexQuery(t *testing.T) {
	db := mustParse(t, `
		rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		query Q(x, y) := S(x, y);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Disjuncts) != 1 || plan.Disjuncts[0].ExVars != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Disjuncts[0].Poly.Dim() != 2 {
		t.Error("disjunct dimension wrong")
	}
}

func TestPlanUnionQuery(t *testing.T) {
	db := mustParse(t, `
		rel S(x) := { 0 <= x <= 1 } | { 5 <= x <= 6 };
		query Q(x) := S(x);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d, want 2", len(plan.Disjuncts))
	}
}

func TestPlanExistentialQuery(t *testing.T) {
	db := mustParse(t, `
		rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		query Q(x) := exists y. S(x, y);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Disjuncts) != 1 || plan.Disjuncts[0].ExVars != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Disjuncts[0].Poly.Dim() != 2 {
		t.Error("existential disjunct must be 2-D before projection")
	}
}

func TestPlanDropsUnusedExistentials(t *testing.T) {
	// ∃z (S(x)) with z unused: disjunct must stay 1-D convex.
	db := mustParse(t, `
		rel S(x) := { 0 <= x <= 1 };
		query Q(x) := exists z. S(x);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Disjuncts) != 1 || plan.Disjuncts[0].ExVars != 0 {
		t.Fatalf("unused existential must be dropped: %+v", plan.Disjuncts)
	}
}

func TestPlanNegatedAtomSupported(t *testing.T) {
	// Negated atoms stay linear: !(x <= 0.5) & S(x).
	db := mustParse(t, `
		rel S(x) := { 0 <= x <= 1 };
		query Q(x) := S(x) & !(x <= 1/2);
	`)
	obs, err := observableOf(db, "Q", 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		x, err := obs.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if x[0] < 0.5-1e-6 || x[0] > 1+1e-6 {
			t.Fatalf("sample %v outside (0.5, 1]", x)
		}
	}
}

func TestPlanRejectsUniversal(t *testing.T) {
	db := mustParse(t, `
		rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		query Q(x) := forall y. S(x, y);
	`)
	if _, err := NewRel("Q").Compile(db); !errors.Is(err, ErrUnsupported) {
		t.Errorf("universal quantifier error = %v, want ErrUnsupported", err)
	}
}

func TestPlanRejectsNegatedExists(t *testing.T) {
	db := mustParse(t, `
		rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		query Q(x) := !(exists y. S(x, y));
	`)
	if _, err := NewRel("Q").Compile(db); !errors.Is(err, ErrUnsupported) {
		t.Errorf("negated exists error = %v, want ErrUnsupported", err)
	}
}

func TestEstimateVolumeMatchesSymbolic(t *testing.T) {
	// Volume of ∃y S(x,y) for the triangle: the projection is [0,1],
	// symbolic length 1; the estimate must agree within the ratio.
	db := mustParse(t, `
		rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };
		query Q(x) := exists y. S(x, y);
	`)
	est := volumeOf(t, db, "Q", 9)
	// Symbolic ground truth.
	exact, err := core.ExactVolume(symbolicOf(t, db, "Q"))
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(est, exact, 0.5) {
		t.Errorf("estimated %g vs symbolic %g", est, exact)
	}
}

func TestEstimateVolumeUnionQuery(t *testing.T) {
	db := mustParse(t, `
		rel A(x, y) := { 0 <= x <= 2, 0 <= y <= 2 };
		rel B(x, y) := { 1 <= x <= 3, 1 <= y <= 3 };
		query U(x, y) := A(x, y) | B(x, y);
	`)
	est := volumeOf(t, db, "U", 10)
	if !num.WithinRatio(est, 7, 0.4) {
		t.Errorf("union volume = %g, want ~7", est)
	}
}

func TestEstimateVolumeConjunctionOfRelations(t *testing.T) {
	// A ∧ B as a conjunctive plan: atoms merge into one polytope —
	// no poly-relatedness issue arises for conjunctions of atoms.
	db := mustParse(t, `
		rel A(x, y) := { 0 <= x <= 2, 0 <= y <= 2 };
		rel B(x, y) := { 1 <= x <= 3, 1 <= y <= 3 };
		query I(x, y) := A(x, y) & B(x, y);
	`)
	est := volumeOf(t, db, "I", 11)
	if !num.WithinRatio(est, 1, 0.4) {
		t.Errorf("conjunction volume = %g, want ~1", est)
	}
}

func TestReconstructQuery(t *testing.T) {
	// Reconstruct ∃y S(x, z, y) — the projected square — via
	// Algorithm 5 and validate membership.
	db := mustParse(t, `
		rel S(x, z, y) := { 0 <= x <= 1, 0 <= z <= 1, 0 <= y <= 1, x + y + z <= 2 };
		query Q(x, z) := exists y. S(x, z, y);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEngine(db.Schema, fastOpts(), 13).ReconstructFromPlan(plan, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Hulls) != 1 {
		t.Fatalf("hulls = %d, want 1", len(est.Hulls))
	}
	// The projection is the whole unit square (y=0 always works).
	if !est.Contains(linalg.Vector{0.5, 0.5}) {
		t.Error("reconstruction must contain the square centre")
	}
	if est.Contains(linalg.Vector{1.5, 0.5}) {
		t.Error("reconstruction must exclude outside points")
	}
}

func TestObservableEmptyQueryRejected(t *testing.T) {
	db := mustParse(t, `
		rel S(x) := { 0 <= x <= 1 };
		query Q(x) := S(x) & x >= 2;
	`)
	if _, err := observableOf(db, "Q", 14); err == nil {
		t.Error("empty query must be rejected")
	}
}

func TestObservableUnknownRelation(t *testing.T) {
	q := constraint.Query{Name: "Q", Vars: []string{"x"},
		F: constraint.Pred{Name: "Missing", Args: []string{"x"}}}
	if _, err := observableOf(queryDB(constraint.Schema{}, q), "Q", 15); err == nil {
		t.Error("unknown relation must be rejected")
	}
}

func TestPlanFreeVariableNotInOutput(t *testing.T) {
	q := constraint.Query{Name: "Q", Vars: []string{"x"},
		F: constraint.AtomF{Vars: []string{"x", "y"}, Atom: constraint.NewAtom(linalg.Vector{1, 1}, 1, false)}}
	if _, err := NewRel("Q").Compile(queryDB(constraint.Schema{}, q)); err == nil {
		t.Error("free variable outside outputs must be rejected")
	}
}

func TestPlanDescribe(t *testing.T) {
	db := mustParse(t, `
		rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		query Q(x) := exists y. S(x, y);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	for _, want := range []string{"union combinator", "projection generator", "R^2",
		"Fourier–Motzkin elimination, prepared warm", "Algorithm 2 per call only past the elimination budget"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q in %q", want, desc)
		}
	}
}

func TestUnionOfProjectedDisjuncts(t *testing.T) {
	// A query mixing a plain convex disjunct with an ∃-projected one:
	// the plan must produce one Convex and one Projection member under
	// a Union, and the volume must match the symbolic ground truth.
	db := mustParse(t, `
		rel A(x) := { 5 <= x <= 6 };
		rel S(x, y) := { 0 <= x <= 1, 0 <= y <= 1, x + y <= 3/2 };
		query Q(x) := A(x) | exists y. S(x, y);
	`)
	plan, err := NewRel("Q").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d, want 2", len(plan.Disjuncts))
	}
	var exCounts []int
	for _, d := range plan.Disjuncts {
		exCounts = append(exCounts, d.ExVars)
	}
	if !(exCounts[0] == 0 && exCounts[1] == 1 || exCounts[0] == 1 && exCounts[1] == 0) {
		t.Errorf("expected one convex and one projected disjunct, got ExVars=%v", exCounts)
	}
	// Symbolic ground truth: [5,6] ∪ [0,1] has length 2.
	e := NewEngine(db.Schema, fastOpts(), 21)
	obs, err := e.ObservableFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	est, err := obs.Volume()
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(est, 2, 0.5) {
		t.Errorf("mixed-plan volume = %g, want ~2", est)
	}
	// Sampling must cover both components.
	obs, err = e.ObservableFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	low, high := 0, 0
	for i := 0; i < 400; i++ {
		x, err := obs.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if x[0] < 3 {
			low++
		} else {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Errorf("union of mixed disjuncts missed a component: low=%d high=%d", low, high)
	}
}

func TestSamplingVsSymbolicProjectionAgreement(t *testing.T) {
	// Deeper pipeline: ∃y,z chained boxes; compare sampled volume to
	// symbolic Fourier–Motzkin ground truth.
	db := mustParse(t, `
		rel R(x, y, z) := { 0 <= x <= 1, x <= y, y <= x + 1, 0 <= z <= y, y <= 2 };
		query Q(x) := exists y, z. R(x, y, z);
	`)
	exact, err := core.ExactVolume(symbolicOf(t, db, "Q"))
	if err != nil {
		t.Fatal(err)
	}
	est := volumeOf(t, db, "Q", 17)
	if !num.WithinRatio(est, exact, 0.5) {
		t.Errorf("sampled %g vs symbolic %g", est, exact)
	}
}
