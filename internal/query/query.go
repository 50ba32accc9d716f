// Package query evaluates FO+LIN queries over a constraint database two
// ways:
//
//   - Symbolically (SymbolicQuery.Eval): predicate inlining,
//     normalisation and Fourier–Motzkin quantifier elimination — the
//     classical constraint database evaluation whose cost explodes with
//     the number of eliminated variables.
//   - By sampling (Engine.ObservableFromPlan / ReconstructFromPlan): the
//     paper's approach. An algebra expression (Node.Compile) is
//     normalised into an existential positive plan — a disjunction of
//     (conjunction of atoms, ∃-vars) disjuncts — and mapped onto the
//     core combinators: DFK generators for conjunctions, the projection
//     generator for ∃, the union generator across disjuncts, and
//     per-disjunct hulls for shape reconstruction (Algorithm 5).
package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/reconstruct"
	"repro/internal/rng"
)

// ErrUnsupported is returned for formulas outside the sampling fragment
// (universal quantification, or negation over quantifiers). The paper's
// guaranteed reconstruction covers existential positive formulas
// (Theorem 4.4); negation on atoms is fine since a negated linear atom
// is again a linear atom.
var ErrUnsupported = errors.New("query: formula outside the existential sampling fragment")

// Engine builds per-call generators for compiled plans: the Algorithm 2
// fallback for plans whose disjuncts keep existential coordinates, which
// have no prepared sampler.
type Engine struct {
	Schema constraint.Schema
	Opts   core.Options
	R      *rng.RNG
}

// NewEngine returns an engine with the given schema, options and seed.
func NewEngine(schema constraint.Schema, opts core.Options, seed uint64) *Engine {
	return &Engine{Schema: schema, Opts: opts, R: rng.New(seed)}
}

// Plan is the sampling execution plan: a disjunction of convex-or-
// projected disjuncts over the query's output coordinates.
type Plan struct {
	OutVars   []string
	Disjuncts []PlanDisjunct
}

// PlanDisjunct is one ϕ_i: a polytope over OutVars ∪ ExVars coordinates,
// where the first len(OutVars) coordinates are the outputs and the
// remaining ones are existentially projected away.
type PlanDisjunct struct {
	Poly   *polytope.Polytope
	ExVars int // number of trailing existential coordinates
}

// Describe renders the plan for humans: one line per disjunct with its
// generator kind (the paper's combinator), dimensions and constraint
// counts. A projection disjunct names both of its routes: the executor
// serves it warm from its Fourier–Motzkin elimination, and runs
// Algorithm 2 per call only when a round would pass the elimination
// budget (CanonicalPlan.EliminateWithin); the plan's cache entry says
// which route it took.
func (p *Plan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sampling plan over (%s): %d disjunct(s) under the union combinator\n",
		strings.Join(p.OutVars, ", "), len(p.Disjuncts))
	for i, d := range p.Disjuncts {
		kind := "DFK convex generator"
		if d.ExVars > 0 {
			kind = fmt.Sprintf("projection generator over %d existential coordinate(s): "+
				"Fourier–Motzkin elimination, prepared warm; Algorithm 2 per call only past the elimination budget", d.ExVars)
		}
		fmt.Fprintf(&sb, "  disjunct %d: %s — %d constraints in R^%d\n",
			i, kind, d.Poly.Rows(), d.Poly.Dim())
	}
	return sb.String()
}

// planInlined runs the plan pipeline on an already-inlined formula
// (predicates replaced by their DNF bodies): negation pushdown, alpha
// renaming of binders, DNF normalisation and per-disjunct polytope
// layout. The algebra compiler (Node.Compile, Node.CompileSymbolic)
// runs it on every expression.
func planInlined(outVars []string, f constraint.Formula) (*Plan, error) {
	f, err := toNNF(f, false)
	if err != nil {
		return nil, err
	}
	// Alpha-rename binders, then normalise.
	ctr := 0
	f = alphaRenameLocal(f, map[string]string{}, &ctr)
	ds, err := normalize(f)
	if err != nil {
		return nil, err
	}
	plan := &Plan{OutVars: outVars}
	for _, d := range ds {
		pd, ok, err := d.toPolytope(outVars)
		if err != nil {
			return nil, err
		}
		if ok {
			plan.Disjuncts = append(plan.Disjuncts, pd)
		}
	}
	return plan, nil
}

// ObservableFromPlan builds the paper's compositional generator for a
// compiled (and canonicalized) plan: per-disjunct DFK or projection
// generators under the union combinator.
func (e *Engine) ObservableFromPlan(plan *Plan) (core.Observable, error) {
	var members []core.Observable
	for i, d := range plan.Disjuncts {
		obs, err := e.disjunctObservable(d)
		if err != nil {
			if errors.Is(err, core.ErrNotWellBounded) {
				continue // zero-measure disjunct
			}
			return nil, fmt.Errorf("query: disjunct %d: %w", i, err)
		}
		members = append(members, obs)
	}
	if len(members) == 0 {
		return nil, errors.New("query: expression defines an empty (or zero-measure) set")
	}
	if len(members) == 1 {
		return members[0], nil
	}
	return core.NewUnion(members, e.R.Split(), e.Opts)
}

func (e *Engine) disjunctObservable(d PlanDisjunct) (core.Observable, error) {
	if d.ExVars == 0 {
		return core.NewConvexPolytope(d.Poly, e.R.Split(), e.Opts)
	}
	keep := make([]int, d.Poly.Dim()-d.ExVars)
	for i := range keep {
		keep[i] = i
	}
	return core.NewProjection(d.Poly, keep, e.R.Split(), e.Opts)
}

// ReconstructFromPlan runs Algorithm 5 directly on a plan.
func (e *Engine) ReconstructFromPlan(plan *Plan, n int) (*reconstruct.SetEstimate, error) {
	var ds []reconstruct.Disjunct
	for _, d := range plan.Disjuncts {
		rd := reconstruct.Disjunct{Tuples: []constraint.Tuple{d.Poly.Tuple()}}
		if d.ExVars > 0 {
			keep := make([]int, d.Poly.Dim()-d.ExVars)
			for i := range keep {
				keep[i] = i
			}
			rd.Keep = keep
		}
		ds = append(ds, rd)
	}
	return reconstruct.EstimateExistentialPositive(ds, n, e.R.Split(), e.Opts)
}

// ---- normalisation ----

// inline replaces predicates by their schema definitions (DNF of atoms).
func inline(f constraint.Formula, schema constraint.Schema) (constraint.Formula, error) {
	switch g := f.(type) {
	case constraint.AtomF:
		return g, nil
	case constraint.Pred:
		rel, ok := schema[g.Name]
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %q", g.Name)
		}
		if len(g.Args) != rel.Arity() {
			return nil, fmt.Errorf("query: %s arity %d applied to %d args", g.Name, rel.Arity(), len(g.Args))
		}
		var disj []constraint.Formula
		for _, t := range rel.Tuples {
			var conj []constraint.Formula
			for _, a := range t.Atoms {
				conj = append(conj, constraint.AtomF{Vars: g.Args, Atom: a})
			}
			if len(conj) == 0 {
				conj = append(conj, trueAtom(g.Args))
			}
			disj = append(disj, constraint.And{Fs: conj})
		}
		if len(disj) == 0 {
			return falseAtom(), nil
		}
		return constraint.Or{Fs: disj}, nil
	case constraint.Not:
		inner, err := inline(g.F, schema)
		if err != nil {
			return nil, err
		}
		return constraint.Not{F: inner}, nil
	case constraint.And:
		fs, err := inlineAll(g.Fs, schema)
		return constraint.And{Fs: fs}, err
	case constraint.Or:
		fs, err := inlineAll(g.Fs, schema)
		return constraint.Or{Fs: fs}, err
	case constraint.Exists:
		inner, err := inline(g.F, schema)
		if err != nil {
			return nil, err
		}
		return constraint.Exists{Vars: g.Vars, F: inner}, nil
	case constraint.ForAll:
		inner, err := inline(g.F, schema)
		if err != nil {
			return nil, err
		}
		return constraint.ForAll{Vars: g.Vars, F: inner}, nil
	default:
		return nil, fmt.Errorf("query: unknown formula node %T", f)
	}
}

func inlineAll(fs []constraint.Formula, schema constraint.Schema) ([]constraint.Formula, error) {
	out := make([]constraint.Formula, len(fs))
	for i, f := range fs {
		g, err := inline(f, schema)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

func trueAtom(vars []string) constraint.Formula {
	if len(vars) == 0 {
		vars = []string{"x"}
	}
	coef := make(linalg.Vector, 1)
	return constraint.AtomF{Vars: vars[:1], Atom: constraint.NewAtom(coef, 1, false)}
}

func falseAtom() constraint.Formula {
	return constraint.AtomF{Vars: []string{"x"}, Atom: constraint.NewAtom(linalg.Vector{0}, -1, false)}
}

// toNNF pushes negation onto atoms. neg tracks an outstanding negation.
// Quantifiers under an effective negation leave the supported fragment.
func toNNF(f constraint.Formula, neg bool) (constraint.Formula, error) {
	switch g := f.(type) {
	case constraint.AtomF:
		if neg {
			return constraint.AtomF{Vars: g.Vars, Atom: g.Atom.Negate()}, nil
		}
		return g, nil
	case constraint.Not:
		return toNNF(g.F, !neg)
	case constraint.And:
		fs := make([]constraint.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			var err error
			fs[i], err = toNNF(sub, neg)
			if err != nil {
				return nil, err
			}
		}
		if neg {
			return constraint.Or{Fs: fs}, nil
		}
		return constraint.And{Fs: fs}, nil
	case constraint.Or:
		fs := make([]constraint.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			var err error
			fs[i], err = toNNF(sub, neg)
			if err != nil {
				return nil, err
			}
		}
		if neg {
			return constraint.And{Fs: fs}, nil
		}
		return constraint.Or{Fs: fs}, nil
	case constraint.Exists:
		if neg {
			return nil, fmt.Errorf("%w: negated existential quantifier", ErrUnsupported)
		}
		inner, err := toNNF(g.F, false)
		if err != nil {
			return nil, err
		}
		return constraint.Exists{Vars: g.Vars, F: inner}, nil
	case constraint.ForAll:
		return nil, fmt.Errorf("%w: universal quantifier", ErrUnsupported)
	case constraint.Pred:
		return nil, errors.New("query: internal: predicate survived inlining")
	default:
		return nil, fmt.Errorf("query: unknown formula node %T", f)
	}
}

// alphaRenameLocal gives every binder a fresh name.
func alphaRenameLocal(f constraint.Formula, env map[string]string, ctr *int) constraint.Formula {
	switch g := f.(type) {
	case constraint.AtomF:
		vars := make([]string, len(g.Vars))
		for i, v := range g.Vars {
			if nv, ok := env[v]; ok {
				vars[i] = nv
			} else {
				vars[i] = v
			}
		}
		return constraint.AtomF{Vars: vars, Atom: g.Atom}
	case constraint.And:
		fs := make([]constraint.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = alphaRenameLocal(sub, env, ctr)
		}
		return constraint.And{Fs: fs}
	case constraint.Or:
		fs := make([]constraint.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = alphaRenameLocal(sub, env, ctr)
		}
		return constraint.Or{Fs: fs}
	case constraint.Exists:
		inner := make(map[string]string, len(env)+len(g.Vars))
		for k, v := range env {
			inner[k] = v
		}
		fresh := make([]string, len(g.Vars))
		for i, v := range g.Vars {
			*ctr++
			fresh[i] = fmt.Sprintf("%s!%d", v, *ctr)
			inner[v] = fresh[i]
		}
		return constraint.Exists{Vars: fresh, F: alphaRenameLocal(g.F, inner, ctr)}
	default:
		return f
	}
}

// disjunct accumulates atoms (over named variables) and existential
// variable names during normalisation.
type disjunct struct {
	atoms  []constraint.AtomF
	exVars map[string]bool
}

func (d disjunct) clone() disjunct {
	nd := disjunct{exVars: map[string]bool{}}
	nd.atoms = append(nd.atoms, d.atoms...)
	for v := range d.exVars {
		nd.exVars[v] = true
	}
	return nd
}

// normalize distributes the NNF formula into existential positive DNF.
// Alpha renaming makes hoisting ∃ out of ∧ sound.
func normalize(f constraint.Formula) ([]disjunct, error) {
	switch g := f.(type) {
	case constraint.AtomF:
		return []disjunct{{atoms: []constraint.AtomF{g}, exVars: map[string]bool{}}}, nil
	case constraint.Or:
		var out []disjunct
		for _, sub := range g.Fs {
			ds, err := normalize(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
		}
		return out, nil
	case constraint.And:
		acc := []disjunct{{exVars: map[string]bool{}}}
		for _, sub := range g.Fs {
			ds, err := normalize(sub)
			if err != nil {
				return nil, err
			}
			var next []disjunct
			for _, a := range acc {
				for _, b := range ds {
					m := a.clone()
					m.atoms = append(m.atoms, b.atoms...)
					for v := range b.exVars {
						m.exVars[v] = true
					}
					next = append(next, m)
				}
			}
			acc = next
		}
		return acc, nil
	case constraint.Exists:
		ds, err := normalize(g.F)
		if err != nil {
			return nil, err
		}
		for i := range ds {
			for _, v := range g.Vars {
				ds[i].exVars[v] = true
			}
		}
		return ds, nil
	default:
		return nil, fmt.Errorf("%w: node %T after NNF", ErrUnsupported, f)
	}
}

// toPolytope lays the disjunct out over outVars followed by its own
// existential variables (sorted for determinism), dropping existential
// variables that no atom mentions. ok is false for trivially empty
// disjuncts.
func (d disjunct) toPolytope(outVars []string) (PlanDisjunct, bool, error) {
	used := map[string]bool{}
	for _, a := range d.atoms {
		for i, v := range a.Vars {
			if a.Atom.Coef[i] != 0 {
				used[v] = true
			}
		}
	}
	var ex []string
	for v := range d.exVars {
		if used[v] {
			ex = append(ex, v)
		}
	}
	sort.Strings(ex)
	frame := append(append([]string{}, outVars...), ex...)
	index := map[string]int{}
	for i, v := range frame {
		index[v] = i
	}
	var rows []linalg.Vector
	var rhs []float64
	for _, a := range d.atoms {
		coef := make(linalg.Vector, len(frame))
		for i, v := range a.Vars {
			j, ok := index[v]
			if !ok {
				if a.Atom.Coef[i] != 0 {
					return PlanDisjunct{}, false, fmt.Errorf("query: free variable %q not among output variables %v", v, outVars)
				}
				continue
			}
			coef[j] += a.Atom.Coef[i]
		}
		// Constant atoms: trivially true drops, trivially false empties.
		na := constraint.Atom{Coef: coef, B: a.Atom.B, Strict: a.Atom.Strict}
		if trivial, sat := na.IsTrivial(); trivial {
			if !sat {
				return PlanDisjunct{}, false, nil
			}
			continue
		}
		rows = append(rows, coef)
		rhs = append(rhs, a.Atom.B)
	}
	if len(rows) == 0 {
		return PlanDisjunct{}, false, nil
	}
	p := polytope.New(rows, rhs)
	if p.IsEmpty() {
		return PlanDisjunct{}, false, nil
	}
	return PlanDisjunct{Poly: p, ExVars: len(ex)}, true, nil
}
