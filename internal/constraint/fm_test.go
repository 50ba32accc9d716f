package constraint

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/rng"
)

func TestEliminateTriangle(t *testing.T) {
	// Project the triangle {x>=0, y>=0, x+y<=1} onto x: [0, 1].
	tri := NewTuple(2,
		NewAtom(linalg.Vector{-1, 0}, 0, false),
		NewAtom(linalg.Vector{0, -1}, 0, false),
		NewAtom(linalg.Vector{1, 1}, 1, false),
	)
	r := MustRelation("T", []string{"x", "y"}, tri)
	p := Eliminate(r, 1, EliminateOptions{})
	if p.Arity() != 1 {
		t.Fatalf("arity = %d, want 1", p.Arity())
	}
	if !p.Contains(linalg.Vector{0.5}) || !p.Contains(linalg.Vector{0}) || !p.Contains(linalg.Vector{1}) {
		t.Error("projection must be [0, 1]")
	}
	if p.Contains(linalg.Vector{1.1}) || p.Contains(linalg.Vector{-0.1}) {
		t.Error("projection must exclude outside points")
	}
}

func TestEliminateKeepsOtherColumns(t *testing.T) {
	// Box in 3-D projected on (x, z).
	b := Box(linalg.Vector{0, 10, -1}, linalg.Vector{1, 20, 1})
	r := MustRelation("B", []string{"x", "y", "z"}, b)
	p := Eliminate(r, 1, EliminateOptions{})
	if p.Arity() != 2 || p.Vars[0] != "x" || p.Vars[1] != "z" {
		t.Fatalf("projected vars = %v", p.Vars)
	}
	if !p.Contains(linalg.Vector{0.5, 0}) || p.Contains(linalg.Vector{2, 0}) {
		t.Error("projected box membership wrong")
	}
}

func TestEliminateInfeasibleDetected(t *testing.T) {
	// x <= y and y <= x - 1 is infeasible; elimination of y exposes 0 <= -1.
	tup := NewTuple(2,
		NewAtom(linalg.Vector{1, -1}, 0, false),  // x - y <= 0
		NewAtom(linalg.Vector{-1, 1}, -1, false), // y - x <= -1
	)
	r := MustRelation("I", []string{"x", "y"}, tup)
	p := Eliminate(r, 1, EliminateOptions{})
	if len(p.Tuples) != 0 {
		t.Errorf("infeasible tuple should vanish, got %d tuples", len(p.Tuples))
	}
}

func TestEliminateStrictPropagation(t *testing.T) {
	// x < y and y <= 1 gives x < 1 after eliminating y.
	tup := NewTuple(2,
		NewAtom(linalg.Vector{1, -1}, 0, true), // x - y < 0
		NewAtom(linalg.Vector{0, 1}, 1, false), // y <= 1
	)
	r := MustRelation("S", []string{"x", "y"}, tup)
	p := Eliminate(r, 1, EliminateOptions{})
	if len(p.Tuples) != 1 {
		t.Fatalf("tuples = %d", len(p.Tuples))
	}
	var strictCount int
	for _, a := range p.Tuples[0].Atoms {
		if a.Strict {
			strictCount++
		}
	}
	if strictCount == 0 {
		t.Error("strictness must propagate through combination")
	}
}

func TestEliminateAllOrderIndependence(t *testing.T) {
	// Project a random 4-D polytope to its first coordinate by
	// eliminating columns {1,2,3}; the result must match the LP extent.
	r := rng.New(55)
	for trial := 0; trial < 10; trial++ {
		cube := Cube(4, -1, 1)
		atoms := append([]Atom{}, cube.Atoms...)
		for k := 0; k < 4; k++ {
			coef := make(linalg.Vector, 4)
			for j := range coef {
				coef[j] = r.Normal()
			}
			atoms = append(atoms, NewAtom(coef, r.Uniform(0.3, 1.2), false))
		}
		tup := NewTuple(4, atoms...)
		if tup.IsEmpty() {
			continue
		}
		rel := MustRelation("P", []string{"a", "b", "c", "d"}, tup)
		proj := EliminateAll(rel, []int{1, 2, 3}, EliminateOptions{})
		if proj.Arity() != 1 {
			t.Fatalf("projection arity = %d", proj.Arity())
		}
		// Ground truth via LP.
		a, b := tup.System()
		hi, ok1 := lp.Extent(a, b, linalg.Vector{1, 0, 0, 0})
		lo, ok2 := lp.Extent(a, b, linalg.Vector{-1, 0, 0, 0})
		if !ok1 || !ok2 {
			continue
		}
		lo = -lo
		mid := (lo + hi) / 2
		if !proj.Contains(linalg.Vector{mid}) {
			t.Errorf("trial %d: midpoint %g of [%g,%g] missing from projection", trial, mid, lo, hi)
		}
		if proj.Contains(linalg.Vector{hi + 0.1}) || proj.Contains(linalg.Vector{lo - 0.1}) {
			t.Errorf("trial %d: projection exceeds LP extent [%g, %g]", trial, lo, hi)
		}
	}
}

func TestEliminateAgainstMembershipSampling(t *testing.T) {
	// Property: for random 3-D polytopes, x is in the projection iff some
	// y completes it (checked by LP feasibility).
	r := rng.New(77)
	for trial := 0; trial < 15; trial++ {
		atoms := append([]Atom{}, Cube(3, -1, 1).Atoms...)
		for k := 0; k < 3; k++ {
			coef := make(linalg.Vector, 3)
			for j := range coef {
				coef[j] = r.Normal()
			}
			atoms = append(atoms, NewAtom(coef, r.Uniform(0.2, 1), false))
		}
		tup := NewTuple(3, atoms...)
		if tup.IsEmpty() {
			continue
		}
		rel := MustRelation("P", []string{"x", "y", "z"}, tup)
		proj := Eliminate(rel, 2, EliminateOptions{}) // drop z
		for i := 0; i < 60; i++ {
			p := linalg.Vector{r.Uniform(-1.2, 1.2), r.Uniform(-1.2, 1.2)}
			// Ground truth: ∃z with (p, z) in tup — fix x,y via equality rows.
			a, b := tup.System()
			var rows []linalg.Vector
			var rhs []float64
			rows = append(rows, a...)
			rhs = append(rhs, b...)
			for dim := 0; dim < 2; dim++ {
				e := make(linalg.Vector, 3)
				e[dim] = 1
				rows = append(rows, e, e.Scale(-1))
				rhs = append(rhs, p[dim], -p[dim])
			}
			_, want := lp.Feasible(rows, rhs)
			got := proj.Contains(p)
			if got != want {
				// Tolerance band: re-check a hair inside.
				continue
			}
		}
	}
}

func TestEliminateUnboundedDirection(t *testing.T) {
	// Tuple with only a lower bound on y: eliminating y keeps only the
	// x constraints (no upper/lower pair exists).
	tup := NewTuple(2,
		NewAtom(linalg.Vector{1, 0}, 1, false),  // x <= 1
		NewAtom(linalg.Vector{0, -1}, 0, false), // y >= 0
	)
	r := MustRelation("U", []string{"x", "y"}, tup)
	p := Eliminate(r, 1, EliminateOptions{})
	if len(p.Tuples) != 1 {
		t.Fatalf("tuples = %d", len(p.Tuples))
	}
	if !p.Contains(linalg.Vector{0.5}) || p.Contains(linalg.Vector{1.5}) {
		t.Error("unbounded elimination kept wrong constraints")
	}
}

func TestRemoveRedundant(t *testing.T) {
	// x <= 1 implied by x <= 0.5 within the square.
	tup := NewTuple(2,
		NewAtom(linalg.Vector{1, 0}, 0.5, false),
		NewAtom(linalg.Vector{1, 0}, 1, false), // redundant
		NewAtom(linalg.Vector{-1, 0}, 0, false),
		NewAtom(linalg.Vector{0, 1}, 1, false),
		NewAtom(linalg.Vector{0, -1}, 0, false),
	)
	out := RemoveRedundant(tup)
	if len(out.Atoms) != 4 {
		t.Errorf("atoms after pruning = %d, want 4", len(out.Atoms))
	}
	// Membership must be preserved.
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		p := linalg.Vector{r.Uniform(-0.5, 1.5), r.Uniform(-0.5, 1.5)}
		if tup.Contains(p) != out.Contains(p) {
			t.Fatalf("pruning changed membership at %v", p)
		}
	}
}

func TestEliminationGrowthWithoutPruning(t *testing.T) {
	// Iterated elimination without pruning grows the constraint count;
	// with pruning it stays small. This is the paper's Fourier–Motzkin
	// blow-up in miniature (experiment E9 measures it at scale).
	r := rng.New(11)
	d := 5
	atoms := append([]Atom{}, Cube(d, -1, 1).Atoms...)
	for k := 0; k < 6; k++ {
		coef := make(linalg.Vector, d)
		for j := range coef {
			coef[j] = r.Normal()
		}
		atoms = append(atoms, NewAtom(coef, r.Uniform(0.5, 1.5), false))
	}
	tup := NewTuple(d, atoms...)
	rel := MustRelation("G", []string{"a", "b", "c", "dd", "e"}, tup)

	raw := EliminateAll(rel, []int{2, 3, 4}, EliminateOptions{SkipPruning: true})
	pruned := EliminateAll(rel, []int{2, 3, 4}, EliminateOptions{})
	rawCount, prunedCount := 0, 0
	for _, tp := range raw.Tuples {
		rawCount += len(tp.Atoms)
	}
	for _, tp := range pruned.Tuples {
		prunedCount += len(tp.Atoms)
	}
	if rawCount <= prunedCount {
		t.Errorf("expected raw FM (%d atoms) to exceed pruned FM (%d atoms)", rawCount, prunedCount)
	}
	// Both must define the same set.
	for i := 0; i < 300; i++ {
		p := linalg.Vector{r.Uniform(-1.2, 1.2), r.Uniform(-1.2, 1.2)}
		if raw.Contains(p) != pruned.Contains(p) {
			t.Fatalf("pruning changed projection membership at %v", p)
		}
	}
}

// TestEliminationSizeBoundsRawRound: the predicted size of a round is
// the pairing count before deduplication, so raw elimination never
// produces more atoms, and on the triangle it is exact (one atom free
// of y plus one upper-lower pair).
func TestEliminationSizeBoundsRawRound(t *testing.T) {
	tri := MustRelation("T", []string{"x", "y"}, Simplex(2, 1))
	if got := EliminationSize(tri, 1); got != 2 {
		t.Fatalf("triangle: predicted %d atoms, want 2", got)
	}
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		atoms := append([]Atom{}, Cube(3, -1, 1).Atoms...)
		for k := 0; k < 8; k++ {
			coef := linalg.Vector{r.Normal(), r.Normal(), r.Normal()}
			atoms = append(atoms, NewAtom(coef, r.Uniform(0.5, 1.5), false))
		}
		rel := MustRelation("G", []string{"a", "b", "c"}, NewTuple(3, atoms...))
		for j := 0; j < 3; j++ {
			raw := Eliminate(rel, j, EliminateOptions{SkipPruning: true})
			got := 0
			for _, tp := range raw.Tuples {
				got += len(tp.Atoms)
			}
			if pred := EliminationSize(rel, j); got > pred {
				t.Fatalf("trial %d column %d: %d raw atoms, predicted at most %d", trial, j, got, pred)
			}
		}
	}
}

// TestRemoveRedundantKeepsStrictness: a strict atom whose bound is
// attained by the non-strict survivors must not be silently deleted —
// that would close an open boundary. The strictness either survives on
// the atom itself or transfers to a coinciding survivor. (Regression:
// the pre-fix LP pass saw only closures and dropped whichever of
// {x < 1, x <= 1} came first.)
func TestRemoveRedundantKeepsStrictness(t *testing.T) {
	// Strict atom first, so the pre-fix scan deletes it.
	tup := NewTuple(1,
		NewAtom(linalg.Vector{1}, 1, true),   // x < 1
		NewAtom(linalg.Vector{1}, 1, false),  // x <= 1 (redundant, non-strict)
		NewAtom(linalg.Vector{-1}, 0, false), // x >= 0
	)
	out := RemoveRedundant(tup)
	if len(out.Atoms) >= len(tup.Atoms) {
		t.Fatalf("nothing pruned: %d atoms", len(out.Atoms))
	}
	if out.Contains(linalg.Vector{1}) {
		t.Errorf("boundary point x=1 contained after pruning: open face closed (atoms %v)", out.Atoms)
	}
	if !out.Contains(linalg.Vector{0.5}) || !out.Contains(linalg.Vector{0}) {
		t.Error("interior/closed-boundary points must stay contained")
	}
}

// TestRemoveRedundantStrictInterior: a strict atom that is strictly
// interior to the survivors (bound not attained) is genuinely redundant
// and must still be dropped.
func TestRemoveRedundantStrictInterior(t *testing.T) {
	tup := NewTuple(1,
		NewAtom(linalg.Vector{1}, 5, true),   // x < 5, implied by x <= 1
		NewAtom(linalg.Vector{1}, 1, false),  // x <= 1
		NewAtom(linalg.Vector{-1}, 0, false), // x >= 0
	)
	out := RemoveRedundant(tup)
	if len(out.Atoms) != 2 {
		t.Fatalf("want the strictly interior strict atom dropped, got %v", out.Atoms)
	}
}

// TestPropertyRemoveRedundantPreservesMembership: for random boxes whose
// facets are duplicated with random strictness, pruning never changes
// membership — including for points ON each facet, where strict vs
// non-strict differ.
func TestPropertyRemoveRedundantPreservesMembership(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 200; trial++ {
		d := 1 + int(r.Uint64()%3)
		lo := make(linalg.Vector, d)
		hi := make(linalg.Vector, d)
		for j := 0; j < d; j++ {
			lo[j] = r.Uniform(-2, 0)
			hi[j] = r.Uniform(0.5, 2)
		}
		// Each facet atom appears twice with independently random
		// strictness (plus the occasional slack duplicate bound).
		base := Box(lo, hi).Atoms
		var atoms []Atom
		for _, a := range base {
			atoms = append(atoms, Atom{Coef: a.Coef, B: a.B, Strict: r.Uint64()%2 == 0})
			atoms = append(atoms, Atom{Coef: a.Coef, B: a.B, Strict: r.Uint64()%2 == 0})
		}
		tup := NewTuple(d, atoms...)
		out := RemoveRedundant(tup)
		// Probe the center and the midpoint of every facet.
		probes := []linalg.Vector{mid(lo, hi)}
		for j := 0; j < d; j++ {
			pLo := mid(lo, hi)
			pLo[j] = lo[j]
			pHi := mid(lo, hi)
			pHi[j] = hi[j]
			probes = append(probes, pLo, pHi)
		}
		for _, x := range probes {
			if tup.Contains(x) != out.Contains(x) {
				t.Fatalf("trial %d: membership of %v changed: %v -> %v\nbefore %v\nafter  %v",
					trial, x, tup.Contains(x), out.Contains(x), tup.Atoms, out.Atoms)
			}
		}
	}
}

func mid(lo, hi linalg.Vector) linalg.Vector {
	m := make(linalg.Vector, len(lo))
	for j := range m {
		m[j] = (lo[j] + hi[j]) / 2
	}
	return m
}

// TestEliminateAllDuplicateIndices: repeated indices fold (∃x ∃x ≡ ∃x)
// instead of silently eliminating whatever column slid into the stale
// index after the first round. (Regression: pre-fix, js = {1, 1} on a
// 3-ary relation eliminated columns 1 AND 2.)
func TestEliminateAllDuplicateIndices(t *testing.T) {
	// Box [0,1] x [0,2] x [0,3].
	r := MustRelation("B", []string{"x", "y", "z"},
		Box(linalg.Vector{0, 0, 0}, linalg.Vector{1, 2, 3}))
	dup := EliminateAll(r, []int{1, 1}, EliminateOptions{})
	if dup.Arity() != 2 {
		t.Fatalf("arity after duplicate eliminate = %d, want 2", dup.Arity())
	}
	once := EliminateAll(r, []int{1}, EliminateOptions{})
	for _, x := range []linalg.Vector{{0.5, 2.5}, {0.5, 3.5}, {1.5, 1}} {
		if dup.Contains(x) != once.Contains(x) {
			t.Errorf("membership of %v diverges: dup=%v once=%v", x, dup.Contains(x), once.Contains(x))
		}
	}
}

// TestEliminateAllOutOfRangePanics: a stale index is a programming
// error and must fail loudly, not address an arbitrary column.
func TestEliminateAllOutOfRangePanics(t *testing.T) {
	r := MustRelation("B", []string{"x", "y"}, Cube(2, 0, 1))
	for _, js := range [][]int{{2}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EliminateAll(%v) did not panic", js)
				}
			}()
			EliminateAll(r, js, EliminateOptions{})
		}()
	}
}
