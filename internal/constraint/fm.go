package constraint

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/num"
)

// redundancyPruneLimit bounds the tuple size up to which the LP-based
// redundancy filter runs after each elimination step. Beyond it the
// quadratic pass in LP solves would dominate; callers measuring the
// raw Fourier–Motzkin blow-up (experiment E9) can exceed it on purpose
// via EliminateOptions.
const redundancyPruneLimit = 256

// EliminateOptions tunes Fourier–Motzkin elimination.
type EliminateOptions struct {
	// SkipPruning disables LP-based redundancy removal, exposing the raw
	// doubly-exponential growth of iterated elimination.
	SkipPruning bool
}

// EliminateInFrame eliminates column j from every tuple of r while
// keeping the arity: resulting atoms have zero coefficient on column j,
// so the result denotes the cylinder over the projection. Used by the
// formula compiler, which trims unconstrained columns at the end.
func EliminateInFrame(r *Relation, j int) *Relation {
	out, _ := EliminateInFrameCtx(r, j, nil)
	return out
}

// EliminateInFrameCtx is EliminateInFrame with an optional interrupt
// polled between tuples: quantifier elimination is the one pass whose
// cost is doubly exponential (experiment E9), so a cancelled request
// must be able to abandon it mid-relation. A non-nil interrupt return
// aborts with that error.
func EliminateInFrameCtx(r *Relation, j int, interrupt func() error) (*Relation, error) {
	out := &Relation{Vars: r.Vars}
	for _, t := range r.Tuples {
		if interrupt != nil {
			if err := interrupt(); err != nil {
				return nil, err
			}
		}
		nt, ok := eliminateTuple(t, j, EliminateOptions{})
		if ok {
			out.Tuples = append(out.Tuples, nt)
		}
	}
	return out, nil
}

// Eliminate removes the variable in column j from every tuple of r and
// drops the column, returning a relation of arity d-1: the projection
// ∃x_j r. This is the classical Fourier–Motzkin implementation of the
// paper's §4.3 baseline.
func Eliminate(r *Relation, j int, opts EliminateOptions) *Relation {
	vars := make([]string, 0, len(r.Vars)-1)
	for i, v := range r.Vars {
		if i != j {
			vars = append(vars, v)
		}
	}
	out := &Relation{Vars: vars}
	for _, t := range r.Tuples {
		nt, ok := eliminateTuple(t, j, opts)
		if !ok {
			continue
		}
		atoms := make([]Atom, 0, len(nt.Atoms))
		for _, a := range nt.Atoms {
			coef := make(linalg.Vector, 0, len(a.Coef)-1)
			for i, c := range a.Coef {
				if i != j {
					coef = append(coef, c)
				}
			}
			atoms = append(atoms, Atom{Coef: coef, B: a.B, Strict: a.Strict})
		}
		out.Tuples = append(out.Tuples, NewTuple(len(vars), atoms...))
	}
	return out
}

// EliminationSize predicts the atoms Eliminate(r, j, ·) produces before
// deduplication and pruning: per tuple, the atoms free of column j plus
// one per pair of an upper and a lower bound on it. It costs one pass
// over the coefficients, so a caller can refuse a round before paying
// for it.
func EliminationSize(r *Relation, j int) int {
	n := 0
	for _, t := range r.Tuples {
		var uppers, lowers, rest int
		for _, a := range t.Atoms {
			switch {
			case a.Coef[j] > num.Eps:
				uppers++
			case a.Coef[j] < -num.Eps:
				lowers++
			default:
				rest++
			}
		}
		n += rest + uppers*lowers
	}
	return n
}

// EliminateAll projects out the columns js (indices into r's columns),
// returning the relation over the remaining columns in their original
// order. Duplicate indices are folded (∃x ∃x ≡ ∃x); an out-of-range
// index panics with a clear message — after the first elimination a
// stale index would silently address a different column, so it is
// always a programming error (same contract as NewTuple).
func EliminateAll(r *Relation, js []int, opts EliminateOptions) *Relation {
	// Dedupe first: eliminating a column shifts every higher index, so a
	// repeated index in the descending sweep would re-eliminate whatever
	// column slid into its place.
	seen := make(map[int]bool, len(js))
	sorted := make([]int, 0, len(js))
	for _, j := range js {
		if j < 0 || j >= r.Arity() {
			panic(fmt.Sprintf("constraint: EliminateAll index %d out of range for arity %d", j, r.Arity()))
		}
		if seen[j] {
			continue
		}
		seen[j] = true
		sorted = append(sorted, j)
	}
	// Eliminate from the highest index down so earlier indices stay valid.
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	out := r
	for _, j := range sorted {
		out = Eliminate(out, j, opts)
	}
	return out
}

// eliminateTuple removes variable j from one tuple by pairing lower and
// upper bounds; the returned tuple has zero coefficients on column j.
// ok is false when the elimination proves the tuple empty.
func eliminateTuple(t Tuple, j int, opts EliminateOptions) (Tuple, bool) {
	var uppers, lowers, rest []Atom
	for _, a := range t.Atoms {
		switch {
		case a.Coef[j] > num.Eps:
			uppers = append(uppers, a)
		case a.Coef[j] < -num.Eps:
			lowers = append(lowers, a)
		default:
			// Zero the residual coefficient for exact frame invariants.
			na := a
			na.Coef = a.Coef.Clone()
			na.Coef[j] = 0
			rest = append(rest, na)
		}
	}
	atoms := rest
	for _, u := range uppers {
		for _, l := range lowers {
			// u: u·x <= ub with u_j > 0;  l: l·x <= lb with l_j < 0.
			// (-l_j)·u + u_j·l has zero j-coefficient.
			uj, lj := u.Coef[j], l.Coef[j]
			coef := make(linalg.Vector, len(u.Coef))
			for i := range coef {
				coef[i] = -lj*u.Coef[i] + uj*l.Coef[i]
			}
			coef[j] = 0
			b := -lj*u.B + uj*l.B
			a := Atom{Coef: coef, B: b, Strict: u.Strict || l.Strict}
			if trivial, sat := a.IsTrivial(); trivial {
				if !sat {
					return Tuple{}, false
				}
				continue
			}
			atoms = append(atoms, a.Normalize())
		}
	}
	nt := NewTuple(t.Dim(), dedupAtoms(atoms)...)
	if !opts.SkipPruning && len(nt.Atoms) <= redundancyPruneLimit {
		nt = RemoveRedundant(nt)
	}
	if nt.IsEmpty() {
		return Tuple{}, false
	}
	return nt, true
}

// dedupAtoms removes exact duplicates after normalisation.
func dedupAtoms(atoms []Atom) []Atom {
	out := atoms[:0:0]
	for _, a := range atoms {
		na := a.Normalize()
		dup := false
		for _, b := range out {
			if na.Strict == b.Strict && num.Eq(na.B, b.B) && na.Coef.Equal(b.Coef, num.Eps) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, na)
		}
	}
	return out
}

// RemoveRedundant drops atoms implied by the rest of the tuple, using one
// LP per atom: a·x <= b is redundant when max a·x over the remaining
// atoms is at most b. The LP sees only closures, so strictness needs
// separate care: a strict atom active at the survivors' boundary (its
// bound is attained) is NOT implied by a coinciding non-strict atom —
// dropping it would close an open face and change Source() round-trips.
// Such an atom either transfers its strictness to a survivor on the
// same hyperplane or is kept.
func RemoveRedundant(t Tuple) Tuple {
	atoms := append([]Atom{}, t.Atoms...)
	for i := 0; i < len(atoms); i++ {
		others := make([]linalg.Vector, 0, len(atoms)-1)
		rhs := make([]float64, 0, len(atoms)-1)
		for k, a := range atoms {
			if k == i {
				continue
			}
			others = append(others, a.Coef)
			rhs = append(rhs, a.B)
		}
		if len(others) == 0 {
			break
		}
		v, ok := lp.Extent(others, rhs, atoms[i].Coef)
		if !ok || v > atoms[i].B+num.Eps {
			continue
		}
		if atoms[i].Strict && v >= atoms[i].B-num.Eps {
			// The strict bound is attained by the survivors' closure: the
			// open face matters. Move the strictness onto a survivor on
			// the same hyperplane, or keep the atom.
			ni := atoms[i].Normalize()
			transferred := false
			for k := range atoms {
				if k == i {
					continue
				}
				na := atoms[k].Normalize()
				if num.Eq(na.B, ni.B) && na.Coef.Equal(ni.Coef, num.Eps) {
					atoms[k].Strict = true
					transferred = true
					break
				}
			}
			if !transferred {
				continue
			}
		}
		atoms = append(atoms[:i], atoms[i+1:]...)
		i--
	}
	return NewTuple(t.Dim(), atoms...)
}
