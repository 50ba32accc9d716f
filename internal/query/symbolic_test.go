package query

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// TestTimeSliceOverflowEmpty: a slice time large enough to overflow the
// folded bound (coef·t0 = +Inf) makes the atom unsatisfiable — the
// provably empty slice must stay empty, not become the whole space.
// (Regression: substConst mapped every degenerate fold to b = +Inf,
// i.e. trivially true.)
func TestTimeSliceOverflowEmpty(t *testing.T) {
	db := mustParse(t, `rel R(x, t) := { 0 <= x <= 1, 0 <= t, x + 1e10 t <= 1 };`)
	plan, err := NewRel("R").TimeSlice(1e308).Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if cp := Canonicalize(plan); !cp.Empty() {
		t.Fatalf("slice at t0=1e308 must be provably empty, got %d disjunct(s): %s",
			len(cp.Plan.Disjuncts), cp.Plan.Describe())
	}
	// The mirrored overflow (-Inf fold on the lower-bound side via a
	// negative coefficient) keeps the trivially-true contract: the atom
	// x - 1e10 t <= 1 is vacuous at huge t, so the slice is [0, 1].
	db2 := mustParse(t, `rel R2(x, t) := { 0 <= x <= 1, 0 <= t, x - 1e10 t <= 1 };`)
	plan2, err := NewRel("R2").TimeSlice(1e308).Compile(db2)
	if err != nil {
		t.Fatal(err)
	}
	if cp := Canonicalize(plan2); cp.Empty() {
		t.Fatal("vacuous overflowed atom must not empty the slice")
	}
	// Slicing at t = NaN denotes the empty set (every comparison with
	// NaN is false), not the full cylinder.
	plan3, err := NewRel("R").TimeSlice(math.NaN()).Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if cp := Canonicalize(plan3); !cp.Empty() {
		t.Fatalf("slice at t0=NaN must be provably empty: %s", cp.Plan.Describe())
	}
}

// TestDivCompilesToUniversal: Div lowers to ∀y (o(y) → n(x, y)) — the
// sampling pipeline rejects it, the symbolic pipeline accepts it.
func TestDivCompilesToUniversal(t *testing.T) {
	db := mustParse(t, `
		rel N(x, y) := { 0 <= x <= 3, 0 <= y <= 1, x + y <= 3 };
		rel O(y)    := { 0 <= y <= 1 };
	`)
	node := NewRel("N").Div(NewRel("O"))
	if _, err := node.Compile(db); err == nil {
		t.Fatal("sampling compile of Div must be rejected (universal quantifier)")
	}
	sq, err := node.CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	if sq.InFragment() {
		t.Error("Div expression reported in the sampling fragment")
	}
	if got := sq.OutVars; len(got) != 1 || got[0] != "x" {
		t.Fatalf("OutVars = %v, want [x]", got)
	}
	if !strings.Contains(sq.Formula().String(), "forall") {
		t.Errorf("formula %q lacks the universal quantifier", sq.Formula())
	}
	rel, err := sq.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// ∀y∈[0,1]: x+y <= 3 ⇒ x <= 2; result [0, 2].
	for _, c := range []struct {
		x  float64
		in bool
	}{{-0.5, false}, {0, true}, {1.9, true}, {2, true}, {2.1, false}, {3, false}} {
		if rel.Contains(linalg.Vector{c.x}) != c.in {
			t.Errorf("N ÷ O at x=%g: contains = %v, want %v (rel %s)", c.x, !c.in, c.in, rel)
		}
	}
}

// TestDivArityValidation: the divisor's arity must be positive and
// strictly below the dividend's.
func TestDivArityValidation(t *testing.T) {
	db := mustParse(t, `
		rel N(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		rel O(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
	`)
	if _, err := NewRel("N").Div(NewRel("O")).CompileSymbolic(db); err == nil {
		t.Error("equal-arity Div must be rejected")
	}
}

// TestCompileSymbolicSharesCanonicalKey: in-fragment expressions key
// the symbolic cache by their canonical plan hash, so operand
// permutations share one entry; full-FO expressions get a distinct
// formula-hash key.
func TestCompileSymbolicSharesCanonicalKey(t *testing.T) {
	db := mustParse(t, `
		rel A(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		rel B(x, y) := { 0.5 <= x <= 2, 0 <= y <= 1 };
		rel O(y)    := { 0 <= y <= 0.5 };
	`)
	s1, err := NewRel("A").Intersect(NewRel("B")).CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewRel("B").Intersect(NewRel("A")).CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.InFragment() || s1.Key != s2.Key {
		t.Errorf("in-fragment symbolic keys differ: %q vs %q", s1.Key, s2.Key)
	}
	cp := Canonicalize(mustCompile(t, NewRel("A").Intersect(NewRel("B")), db))
	if s1.Key != cp.Key {
		t.Errorf("symbolic key %q != canonical plan key %q", s1.Key, cp.Key)
	}
	// A full-FO tree compiled twice yields the same formula-hash key,
	// marked distinctly from canonical plan keys.
	f1, err := NewRel("A").Div(NewRel("O")).CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewRel("A").Div(NewRel("O")).CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Key != f2.Key {
		t.Errorf("full-FO keys unstable: %q vs %q", f1.Key, f2.Key)
	}
	if !strings.HasPrefix(f1.Key, "fo:") {
		t.Errorf("full-FO key %q should carry the fo: marker", f1.Key)
	}
}

func mustCompile(t *testing.T, n *Node, db *constraint.Database) *Plan {
	t.Helper()
	p, err := n.Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvalSymbolicMinusOfProjection: the full-FO pipeline — negation
// pushed through ∃ as ¬∃¬ — evaluates R \ π_x(S) correctly, with the
// complement's open boundaries preserved.
func TestEvalSymbolicMinusOfProjection(t *testing.T) {
	db := mustParse(t, `
		rel R(x)    := { 0 <= x <= 4 };
		rel S(x, y) := { 1 <= x <= 2, 0 <= y <= 1 };
	`)
	node := NewRel("R").Minus(NewRel("S").Project("x"))
	if _, err := node.Compile(db); err == nil {
		t.Fatal("sampling compile of Minus-of-projection must be rejected (negated ∃)")
	}
	sq, err := node.CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sq.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// [0,4] \ [1,2] = [0,1) ∪ (2,4].
	for _, c := range []struct {
		x  float64
		in bool
	}{{0, true}, {0.9, true}, {1, false}, {1.5, false}, {2, false}, {2.1, true}, {4, true}, {4.1, false}} {
		if rel.Contains(linalg.Vector{c.x}) != c.in {
			t.Errorf("R \\ πx(S) at x=%g: contains = %v, want %v (rel %s)", c.x, !c.in, c.in, rel)
		}
	}
	// The open boundary survives a Source() round-trip.
	if !strings.Contains(rel.Source(), "<") {
		t.Errorf("source %q lost every inequality", rel.Source())
	}
}

// TestCanonicalPlanEvalSymbolic: an in-fragment projection plan
// eliminates its existential coordinates to the exact interval.
func TestCanonicalPlanEvalSymbolic(t *testing.T) {
	db := mustParse(t, `rel S(x, y) := { 0 <= y <= 1, y <= x <= y + 2 };`)
	plan, err := NewRel("S").Project("x").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Canonicalize(plan).EvalSymbolic("P")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Arity() != 1 {
		t.Fatalf("arity = %d, want 1", rel.Arity())
	}
	// π_x(S) = [0, 3].
	for _, c := range []struct {
		x  float64
		in bool
	}{{-0.1, false}, {0, true}, {1.5, true}, {3, true}, {3.1, false}} {
		if rel.Contains(linalg.Vector{c.x}) != c.in {
			t.Errorf("πx(S) at x=%g: contains = %v, want %v", c.x, !c.in, c.in)
		}
	}
}

// shapePlan returns the canonical plan of ∃ over every column of poly
// past the first two.
func shapePlan(t *testing.T, poly *polytope.Polytope) *CanonicalPlan {
	t.Helper()
	vars := make([]string, poly.Dim())
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	rel := constraint.MustRelation("R", vars, poly.Tuple())
	db := &constraint.Database{Names: []string{"R"}, Schema: constraint.Schema{"R": rel}}
	plan, err := NewRel("R").Project("x0", "x1").Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	return Canonicalize(plan)
}

// TestEliminateWithinBudget: within its atom budget the budgeted
// elimination returns EvalSymbolic's relation atom for atom, so a warm
// entry prepared from it and an oracle built by EvalSymbolic agree; a
// round predicted past the budget is refused before it runs.
func TestEliminateWithinBudget(t *testing.T) {
	// perfbench's d = 4 shape, two coordinates eliminated.
	cp := shapePlan(t, dataset.RandomPolytope(rng.New(20001016+404), 4, 4, 0.8))
	want, err := cp.EvalSymbolic("derived")
	if err != nil {
		t.Fatal(err)
	}
	var st ElimStats
	got, err := cp.EliminateWithin("derived", 256, nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 || st.AtomsOut == 0 {
		t.Fatalf("stats %+v, want two rounds", st)
	}
	if got.Arity() != want.Arity() || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("relation %v, want %v", got, want)
	}
	for i, gt := range got.Tuples {
		wt := want.Tuples[i]
		if len(gt.Atoms) != len(wt.Atoms) {
			t.Fatalf("tuple %d: %d atoms, want %d", i, len(gt.Atoms), len(wt.Atoms))
		}
		for j, a := range gt.Atoms {
			b := wt.Atoms[j]
			same := a.Strict == b.Strict && math.Float64bits(a.B) == math.Float64bits(b.B)
			for k := range a.Coef {
				same = same && math.Float64bits(a.Coef[k]) == math.Float64bits(b.Coef[k])
			}
			if !same {
				t.Fatalf("tuple %d atom %d = %v, want %v", i, j, a, b)
			}
		}
	}

	// perfbench's d = 6 shape predicts 26 atoms in its first round and
	// 68 in its second: under a budget of 30 the first runs and the
	// second is refused.
	cp = shapePlan(t, dataset.RandomPolytope(rng.New(20001016+606), 6, 6, 0.8))
	st = ElimStats{}
	polls := 0
	_, err = cp.EliminateWithin("derived", 30, func() error { polls++; return nil }, &st)
	if !errors.Is(err, ErrElimBudget) {
		t.Fatalf("err = %v, want ErrElimBudget", err)
	}
	if st.Rounds != 1 || polls != 2 || st.AtomsOut != 0 {
		t.Fatalf("stats %+v after %d polls, want one round run and the second refused", st, polls)
	}

	// A 40-plane tangent ball pairs 20 upper with 20 lower bounds on x2:
	// its only round predicts 400 atoms and never runs.
	cp = shapePlan(t, dataset.TangentBall(40))
	st = ElimStats{}
	if _, err := cp.EliminateWithin("derived", 256, nil, &st); !errors.Is(err, ErrElimBudget) {
		t.Fatalf("err = %v, want ErrElimBudget", err)
	}
	if st.Rounds != 0 || st.AtomsIn != 40 {
		t.Fatalf("stats %+v, want no round run over 40 atoms", st)
	}
}

// TestDivUnderIntersectNoCapture: composing Div under a binary operator
// whose column renaming targets the quantified variable must not
// capture the quotient's free variable under the ∀ binder. (Regression:
// renameFree's ForAll branch did no shadowing/freshening, so the
// quotient column x was renamed to y and silently bound, turning the
// divisor condition vacuous.)
func TestDivUnderIntersectNoCapture(t *testing.T) {
	db := mustParse(t, `
		rel N(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
		rel O(y)    := { 0 <= y <= 1 };
		rel M(y)    := { 0 <= y <= 2 };
	`)
	// M(y) ∩ (N ÷ O): the quotient column is named x, M's is named y —
	// the rename x → y must not be captured by ∀y. Correct answer:
	// [0,2] ∩ [0,1] = [0,1].
	sq, err := NewRel("M").Intersect(NewRel("N").Div(NewRel("O"))).CompileSymbolic(db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sq.Eval()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x  float64
		in bool
	}{{0.5, true}, {1, true}, {1.5, false}, {2, false}} {
		if rel.Contains(linalg.Vector{c.x}) != c.in {
			t.Errorf("M ∩ (N ÷ O) at %g: contains = %v, want %v (formula %s, rel %s)",
				c.x, !c.in, c.in, sq.Formula(), rel)
		}
	}
}
