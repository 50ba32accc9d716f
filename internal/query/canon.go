package query

// Plan canonicalization: the rewrite pass that turns a freshly compiled
// Plan into a normal form with a stable fingerprint. Structurally equal
// expressions — however they were built (operand order of unions and
// intersections, nested vs flat projections, duplicated atoms) — reach
// the same canonical plan and therefore the same cache key, so every
// surface of the system (cdb.Expr, the HTTP /v1/expr endpoint, named
// queries through the DB handle) shares one prepared-sampler entry per
// distinct geometry.
//
// The pass applies, per disjunct: atom normalization (unit ∞-norm
// coefficients), trivial-atom elimination, duplicate-atom removal,
// lexicographic atom sorting (commutative-conjunct canonicalization) and
// LP-feasibility pruning; then across disjuncts: duplicate removal
// (union idempotence) and lexicographic sorting (commutative-operand
// canonicalization). The key hashes the sorted renders, so it is a pure
// function of the denoted geometry's normal form — column names are
// deliberately excluded (coordinates are positional).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/polytope"
)

// CanonicalPlan couples a normalized executable plan with its stable
// fingerprint.
type CanonicalPlan struct {
	// Plan is the normalized plan: sorted, deduplicated, LP-pruned. It
	// is what executors should run — two expressions with equal Keys
	// execute byte-identical plans.
	Plan *Plan
	// Key is the canonical fingerprint: equal for structurally equal
	// expressions regardless of construction order.
	Key string

	disjunctRenders []string
}

// Canonicalize rewrites the plan into its normal form and fingerprints
// it. The input plan is not modified.
func Canonicalize(p *Plan) *CanonicalPlan {
	type cd struct {
		render string
		d      PlanDisjunct
	}
	var cds []cd
	seen := map[string]bool{}
	for _, d := range p.Disjuncts {
		nd, render, ok := canonicalDisjunct(d)
		if !ok || seen[render] {
			continue // LP-infeasible, trivially empty, or a duplicate disjunct
		}
		seen[render] = true
		cds = append(cds, cd{render: render, d: nd})
	}
	sort.Slice(cds, func(i, j int) bool { return cds[i].render < cds[j].render })
	cp := &CanonicalPlan{Plan: &Plan{OutVars: append([]string(nil), p.OutVars...)}}
	for _, c := range cds {
		cp.Plan.Disjuncts = append(cp.Plan.Disjuncts, c.d)
		cp.disjunctRenders = append(cp.disjunctRenders, c.render)
	}
	cp.Key = keyFor(len(p.OutVars), cp.disjunctRenders)
	return cp
}

// keyFor hashes the output arity plus the sorted disjunct renders into
// the canonical fingerprint.
func keyFor(arity int, renders []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|out=%d", arity)
	for _, r := range renders {
		h.Write([]byte{0x1e})
		h.Write([]byte(r))
	}
	return "cplan:" + hex.EncodeToString(h.Sum(nil))[:32]
}

// canonicalDisjunct normalizes one disjunct: rows scaled to unit ∞-norm,
// trivial rows resolved, duplicates dropped, existential coordinates
// relabeled to a canonical order, rows sorted; ok is false when the
// disjunct is provably empty (a trivially false row, or LP infeasibility
// of the normalized system).
func canonicalDisjunct(d PlanDisjunct) (PlanDisjunct, string, bool) {
	type row struct {
		render string
		coef   linalg.Vector
		b      float64
	}
	var rows []row
	seen := map[string]bool{}
	for i := range d.Poly.A {
		a := constraint.Atom{Coef: d.Poly.A[i], B: d.Poly.B[i]}.Normalize()
		if trivial, sat := a.IsTrivial(); trivial {
			if !sat {
				return PlanDisjunct{}, "", false
			}
			continue
		}
		r := renderRow(a.Coef, a.B)
		if seen[r] {
			continue
		}
		seen[r] = true
		rows = append(rows, row{render: r, coef: a.Coef, b: a.B})
	}
	// Existential coordinates are interchangeable up to renaming: the
	// plan pipeline lays them out in alpha-renamed name order, so two
	// expressions differing only in binder numbering would otherwise
	// reach different renders (and miss each other's cache entries).
	// Relabel them to the canonical (render-minimizing) order before
	// rendering, so the key is invariant under binder numbering.
	if d.ExVars > 1 && len(rows) > 0 {
		nOut := d.Poly.Dim() - d.ExVars
		coefs := make([]linalg.Vector, len(rows))
		bs := make([]float64, len(rows))
		for i, r := range rows {
			coefs[i], bs[i] = r.coef, r.b
		}
		if perm := canonicalExOrder(coefs, bs, nOut, d.ExVars); perm != nil {
			for i := range rows {
				rows[i].coef = permuteEx(rows[i].coef, nOut, perm)
				rows[i].render = renderRow(rows[i].coef, rows[i].b)
			}
		}
	}
	if len(rows) == 0 {
		// No constraints left: the whole space — unbounded, and never
		// produced by a feasible compile; treat as empty for safety.
		return PlanDisjunct{}, "", false
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].render < rows[j].render })
	a := make([]linalg.Vector, len(rows))
	b := make([]float64, len(rows))
	renders := make([]string, len(rows))
	for i, r := range rows {
		a[i], b[i], renders[i] = r.coef, r.b, r.render
	}
	poly := polytope.New(a, b)
	if poly.IsEmpty() {
		return PlanDisjunct{}, "", false
	}
	if d.ExVars == 0 {
		// Flat pruning: a bounded disjunct with zero inner radius is a
		// measure-zero sliver (negated boundary atoms of a difference
		// produce these) — it contributes nothing to sampling or volume
		// and would only fail the well-boundedness check at preparation.
		// Disjuncts with existential coordinates are kept: a flat body
		// can still project to a full-dimensional set. Chebyshev errors
		// (unbounded bodies) keep the disjunct, so unbounded inputs
		// surface ErrNotWellBounded at preparation as before.
		if _, r, err := poly.Chebyshev(); err == nil && r <= 1e-9 {
			return PlanDisjunct{}, "", false
		}
	}
	render := fmt.Sprintf("ex=%d|%s", d.ExVars, strings.Join(renders, ";"))
	return PlanDisjunct{Poly: poly, ExVars: d.ExVars}, render, true
}

// maxExactExPerm bounds the exact (minimum-render) search over
// existential-column orders: up to 6 columns is 720 candidate
// labelings, cheap next to the LP pruning pass that follows. Beyond it
// the signature sort below is used alone — deterministic and invariant
// under binder numbering in all but fully symmetric cases.
const maxExactExPerm = 6

// canonicalExOrder returns the canonical relabeling of the ex trailing
// existential columns: perm[k] is the index (0-based within the ex
// block) of the column to place at position k. The order is a pure
// function of the disjunct's geometry — never of the binder names or
// numbering the plan pipeline happened to assign — computed by exact
// minimization of the sorted row renders for small blocks and by a
// column-signature sort for large ones. A nil return means the
// identity order is already canonical.
func canonicalExOrder(coefs []linalg.Vector, bs []float64, nOut, ex int) []int {
	// Deterministic starting point: sort columns by signature (the
	// sorted multiset of the column's entries paired with each row's
	// out-block render, so symmetric columns collide only when the
	// geometry itself is symmetric in them).
	sigs := make([]string, ex)
	for j := 0; j < ex; j++ {
		rowsSig := make([]string, len(coefs))
		for i, c := range coefs {
			rowsSig[i] = renderFloat(c[nOut+j]) + "@" + renderRow(c[:nOut], bs[i])
		}
		sort.Strings(rowsSig)
		sigs[j] = strings.Join(rowsSig, "|")
	}
	perm := make([]int, ex)
	for j := range perm {
		perm[j] = j
	}
	sort.SliceStable(perm, func(a, b int) bool { return sigs[perm[a]] < sigs[perm[b]] })
	if ex > maxExactExPerm {
		if isIdentity(perm) {
			return nil
		}
		return perm
	}
	// Exact search: among all labelings, keep the one whose sorted row
	// renders are lexicographically least. Ties (symmetric columns)
	// all produce the same render, so any winner is canonical.
	best := append([]int(nil), perm...)
	bestRender := exRender(coefs, bs, nOut, best)
	permutations(ex, func(cand []int) {
		if r := exRender(coefs, bs, nOut, cand); r < bestRender {
			bestRender = r
			copy(best, cand)
		}
	})
	if isIdentity(best) {
		return nil
	}
	return best
}

// exRender renders the rows under one ex-column labeling: sorted row
// renders, joined — the same form keyFor hashes.
func exRender(coefs []linalg.Vector, bs []float64, nOut int, perm []int) string {
	renders := make([]string, len(coefs))
	for i, c := range coefs {
		renders[i] = renderRow(permuteEx(c, nOut, perm), bs[i])
	}
	sort.Strings(renders)
	return strings.Join(renders, ";")
}

// permuteEx returns the row with its existential block reordered:
// position nOut+k receives the column nOut+perm[k].
func permuteEx(coef linalg.Vector, nOut int, perm []int) linalg.Vector {
	out := append(coef[:nOut:nOut], make(linalg.Vector, len(perm))...)
	for k, j := range perm {
		out[nOut+k] = coef[nOut+j]
	}
	return out
}

// permutations calls f with every permutation of 0..n-1 (the slice is
// reused across calls).
func permutations(n int, f func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

func isIdentity(perm []int) bool {
	for i, v := range perm {
		if i != v {
			return false
		}
	}
	return true
}

// renderRow renders one normalized constraint row deterministically
// (shortest round-trip decimals; -0 folded into +0).
func renderRow(coef linalg.Vector, b float64) string {
	var sb strings.Builder
	for i, c := range coef {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(renderFloat(c))
	}
	sb.WriteByte('<')
	sb.WriteString(renderFloat(b))
	return sb.String()
}

func renderFloat(v float64) string {
	if v == 0 {
		v = 0 // fold -0 into +0
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Empty reports whether the canonical plan has no feasible disjunct:
// the expression provably denotes the empty set.
func (cp *CanonicalPlan) Empty() bool { return len(cp.Plan.Disjuncts) == 0 }

// NeedsProjection reports whether any disjunct carries existential
// coordinates. Such a plan has no derived relation of its own (see
// Relation): the runtime eliminates the coordinates (EliminateWithin)
// and prepares the result, or, past its atom budget, runs Algorithm 2's
// projection generator per call.
func (cp *CanonicalPlan) NeedsProjection() bool {
	for _, d := range cp.Plan.Disjuncts {
		if d.ExVars > 0 {
			return true
		}
	}
	return false
}

// Relation materialises a quantifier-free canonical plan as a derived
// generalized relation (one tuple per disjunct) ready for sampler
// preparation. It errors on plans that need the projection generator.
func (cp *CanonicalPlan) Relation(name string) (*constraint.Relation, error) {
	if cp.NeedsProjection() {
		return nil, fmt.Errorf("query: plan with existential coordinates has no derived relation")
	}
	tuples := make([]constraint.Tuple, 0, len(cp.Plan.Disjuncts))
	for _, d := range cp.Plan.Disjuncts {
		tuples = append(tuples, d.Poly.Tuple())
	}
	return constraint.NewRelation(name, cp.Plan.OutVars, tuples...)
}

// DisjunctKeys returns the canonical key each disjunct would have as a
// standalone single-disjunct expression — what Explain uses to report
// per-disjunct cache residency.
func (cp *CanonicalPlan) DisjunctKeys() []string {
	keys := make([]string, len(cp.disjunctRenders))
	for i, r := range cp.disjunctRenders {
		keys[i] = keyFor(len(cp.Plan.OutVars), []string{r})
	}
	return keys
}
