package query

// Symbolic evaluation of algebra expressions: the classical §4.3
// baseline (Fourier–Motzkin quantifier elimination) as a terminal for
// the FULL first-order algebra, not just the existential sampling
// fragment. Minus of a projection (¬∃) and Div (∀) compile through
// constraint.Compile — negation pushed through ∃ as ¬∃¬, complements
// expanded per-disjunct, LP pruning after each elimination step —
// while in-fragment expressions reuse their canonical sampling plan
// and merely eliminate its existential coordinates. Either way the
// result is a quantifier-free DNF relation ready for exact volume
// (polytope.RelationVolume), Source() printing, or sampler
// preparation.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/constraint"
)

// SymbolicQuery is an algebra expression compiled for symbolic
// evaluation: the inlined full-FO formula, the output columns and a
// stable cache key. In-fragment expressions carry their canonical plan
// and reuse its key, so structurally equal expressions — however they
// were built — share one symbolic cache entry exactly like they share
// a prepared sampler; full-FO expressions key on a hash of the inlined
// formula (nominal: binder numbering follows the expression tree).
type SymbolicQuery struct {
	// OutVars are the output column names, in order.
	OutVars []string
	// Key is the stable fingerprint runtime caches key symbolic results
	// by: the canonical plan key for in-fragment expressions, a formula
	// hash ("fo:...") otherwise.
	Key string

	f      constraint.Formula
	schema constraint.Schema
	cp     *CanonicalPlan // non-nil when the expression is in the sampling fragment
}

// CompileSymbolic lowers the expression for symbolic evaluation. It
// never returns ErrUnsupported: formulas outside the sampling fragment
// are exactly the ones quantifier elimination exists for.
func (n *Node) CompileSymbolic(db *constraint.Database) (*SymbolicQuery, error) {
	fresh := 0
	f, cols, err := n.compile(db, &fresh)
	if err != nil {
		return nil, err
	}
	sq := &SymbolicQuery{OutVars: append([]string(nil), cols...), f: f, schema: db.Schema}
	plan, err := planInlined(cols, f)
	switch {
	case err == nil:
		sq.cp = Canonicalize(plan)
		sq.Key = sq.cp.Key
	case errors.Is(err, ErrUnsupported):
		// Full first-order: no sampling plan exists; fingerprint the
		// inlined formula instead.
		sq.Key = formulaKey(f, cols)
	default:
		return nil, err
	}
	return sq, nil
}

// SymbolicFromPlan wraps an already-canonicalized in-fragment plan for
// symbolic evaluation, reusing its key. Callers that have paid the
// canonicalization pass (cdb.Expr memoizes it) use this instead of
// CompileSymbolic to avoid planning the same expression twice.
func SymbolicFromPlan(cp *CanonicalPlan) *SymbolicQuery {
	return &SymbolicQuery{
		OutVars: append([]string(nil), cp.Plan.OutVars...),
		Key:     cp.Key,
		cp:      cp,
	}
}

// Formula returns the inlined first-order formula the expression
// denotes — the Source()-printable symbolic form before elimination.
// Nil for queries built with SymbolicFromPlan (the plan IS the form).
func (sq *SymbolicQuery) Formula() constraint.Formula { return sq.f }

// InFragment reports whether the expression also admits a sampling
// plan (no ∀, no negation under ∃).
func (sq *SymbolicQuery) InFragment() bool { return sq.cp != nil }

// Eval runs the symbolic evaluation and returns the quantifier-free
// DNF relation over OutVars, infeasible tuples pruned. In-fragment
// plans eliminate each disjunct's existential coordinates directly;
// full-FO formulas run the complete compile pipeline. The cost is the
// classical doubly-exponential blow-up (experiment E9) — callers cache
// the result.
func (sq *SymbolicQuery) Eval() (*constraint.Relation, error) {
	return sq.EvalCtx(context.Background())
}

// EvalCtx is Eval with cooperative cancellation: ctx is polled at every
// formula node, between eliminated/complemented tuples and between
// elimination rounds, so a cancelled request abandons the (potentially
// doubly-exponential) pass instead of pinning a CPU to completion.
func (sq *SymbolicQuery) EvalCtx(ctx context.Context) (*constraint.Relation, error) {
	rel, _, err := sq.EvalCtxStats(ctx)
	return rel, err
}

// EvalCtxStats is EvalCtx with elimination-effort measurement: how many
// existential coordinates were eliminated per disjunct, how many
// Fourier–Motzkin rounds ran, and how the atom count grew — the
// observed shape of the doubly-exponential cost cliff (experiment E9)
// a cost-based planner must route around. Full-FO expressions (outside
// the sampling fragment) run the compile pipeline, which reports only
// the output side: Rounds stays 0 and AtomsIn counts nothing.
func (sq *SymbolicQuery) EvalCtxStats(ctx context.Context) (*constraint.Relation, ElimStats, error) {
	var interrupt func() error
	if ctx != nil && ctx.Done() != nil {
		interrupt = ctx.Err
	}
	var st ElimStats
	if sq.cp != nil {
		rel, err := sq.cp.evalSymbolic("derived", interrupt, &st)
		return rel, st, err
	}
	rel, err := constraint.CompileInterruptible(sq.f, sq.schema, sq.OutVars, interrupt)
	if err != nil {
		return nil, st, err
	}
	rel.Name = "derived"
	st.Disjuncts = len(rel.Tuples)
	for _, t := range rel.Tuples {
		st.AtomsOut += len(t.Atoms)
	}
	return rel, st, nil
}

// ElimStats measures one symbolic evaluation: the per-disjunct
// eliminated-variable counts, Fourier–Motzkin rounds and atom growth.
type ElimStats struct {
	// Disjuncts is the number of disjuncts evaluated.
	Disjuncts int
	// ElimVars is the total number of existential coordinates
	// eliminated; Rounds the total elimination rounds (one per
	// coordinate per disjunct — each round can square the atom count).
	ElimVars, Rounds int
	// AtomsIn and AtomsOut count constraint atoms before and after
	// elimination (over all disjuncts), the direct observation of the
	// elimination blow-up.
	AtomsIn, AtomsOut int
	// PerDisjunct holds the same measurements per input disjunct.
	PerDisjunct []DisjunctElim
}

// DisjunctElim measures the elimination of one disjunct.
type DisjunctElim struct {
	ExVars, Rounds, AtomsIn, AtomsOut int
}

// formulaKey fingerprints an inlined formula and its output columns
// for the symbolic cache.
func formulaKey(f constraint.Formula, outVars []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|fo|out=%d|", len(outVars))
	for _, v := range outVars {
		h.Write([]byte(v))
		h.Write([]byte{0x1f})
	}
	h.Write([]byte(f.String()))
	return "fo:" + hex.EncodeToString(h.Sum(nil))[:32]
}

// EvalSymbolic materialises the canonical plan as a quantifier-free
// relation: convex disjuncts become tuples verbatim; disjuncts with
// existential coordinates have them eliminated by Fourier–Motzkin
// (with LP redundancy pruning after each step). This is the symbolic
// counterpart of the projection generator — and the exact answer the
// sampling evaluation is measured against.
func (cp *CanonicalPlan) EvalSymbolic(name string) (*constraint.Relation, error) {
	return cp.evalSymbolic(name, nil, nil)
}

func (cp *CanonicalPlan) evalSymbolic(name string, interrupt func() error, st *ElimStats) (*constraint.Relation, error) {
	keep := len(cp.Plan.OutVars)
	out := &constraint.Relation{Name: name, Vars: append([]string(nil), cp.Plan.OutVars...)}
	for i, d := range cp.Plan.Disjuncts {
		t := d.Poly.Tuple()
		de := DisjunctElim{ExVars: d.ExVars, AtomsIn: len(t.Atoms)}
		if d.ExVars == 0 {
			out.Tuples = append(out.Tuples, t)
			de.AtomsOut = de.AtomsIn
			recordDisjunct(st, de)
			continue
		}
		dim := t.Dim()
		if dim != keep+d.ExVars {
			return nil, fmt.Errorf("query: disjunct %d dimension %d != %d outputs + %d existential", i, dim, keep, d.ExVars)
		}
		vars := make([]string, dim)
		for j := range vars {
			vars[j] = fmt.Sprintf("c%d", j)
		}
		// Eliminate the trailing existential coordinates highest-first,
		// polling the interrupt between rounds — each round can square
		// the atom count.
		proj := &constraint.Relation{Vars: vars, Tuples: []constraint.Tuple{t}}
		for j := dim - 1; j >= keep; j-- {
			if interrupt != nil {
				if err := interrupt(); err != nil {
					return nil, err
				}
			}
			proj = constraint.Eliminate(proj, j, constraint.EliminateOptions{})
			de.Rounds++
		}
		for _, pt := range proj.Tuples {
			de.AtomsOut += len(pt.Atoms)
		}
		out.Tuples = append(out.Tuples, proj.Tuples...)
		recordDisjunct(st, de)
	}
	return out.PruneEmpty(), nil
}

// recordDisjunct folds one disjunct's measurements into st (nil-safe).
func recordDisjunct(st *ElimStats, de DisjunctElim) {
	if st == nil {
		return
	}
	st.Disjuncts++
	st.ElimVars += de.ExVars
	st.Rounds += de.Rounds
	st.AtomsIn += de.AtomsIn
	st.AtomsOut += de.AtomsOut
	st.PerDisjunct = append(st.PerDisjunct, de)
}
