package cdb

// Plan inspection for the algebra surface: Expr.Explain reports the
// normalized (canonical) sampling plan, its stable cache key and the
// cache residency of the whole expression and of each disjunct —
// without preparing any geometry. cmd/cdbquery -explain prints it.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/runtime"
)

// QueryPlan is a sampling execution plan: a disjunction of convex-or-
// projected disjuncts over the output coordinates, as produced by Expr
// compilation.
type QueryPlan = query.Plan

// DisjunctExplain describes one disjunct of a canonical plan.
type DisjunctExplain struct {
	// Kind is "convex" (a DFK generator) or "projection" (existential
	// coordinates, eliminated by Fourier–Motzkin within the executor's
	// atom budget and sampled by Algorithm 2 past it).
	Kind string
	// Dim is the disjunct's ambient dimension (outputs + existential
	// coordinates); Constraints its row count; ExVars the number of
	// trailing existential coordinates.
	Dim, Constraints, ExVars int
	// CanonicalKey is the fingerprint the disjunct would have as a
	// standalone single-disjunct expression.
	CanonicalKey string
	// Cache is the residency of that standalone entry in the handle's
	// prepared cache: "hit", "negative" or "miss". A disjunct sampled
	// on its own earlier (or shared with another expression) shows
	// "hit".
	Cache string
	// Observed is the disjunct's measured share of the expression's
	// draws (walk steps, LP membership calls, rejection rounds),
	// recorded under "CacheKey#i". Nil until a draw has run.
	Observed *ObservedCost
}

// StageTiming is one pipeline stage's aggregate timing in an
// ExplainReport: how many times the stage ran for this expression and
// the total wall time it consumed.
type StageTiming struct {
	// Stage is "compile", "prepare", "sample", "bind", "queue" or
	// "eliminate".
	Stage string
	// Count is how many times the stage ran (1 for compile — it is
	// memoized per Expr).
	Count int64
	// Nanos is the cumulative wall time.
	Nanos int64
}

// ExplainReport is the result of Expr.Explain: the rewritten
// (canonical) plan plus cache-key and cache-residency information.
type ExplainReport struct {
	// Columns are the output column names.
	Columns []string
	// CanonicalKey fingerprints the normalized plan: equal for
	// structurally equal expressions regardless of construction order.
	CanonicalKey string
	// CacheKey is the full prepared-cache key (database, canonical
	// plan, options fingerprint).
	CacheKey string
	// Cache is the expression's residency in the prepared cache:
	// "hit", "negative" or "miss". Explain never populates the cache.
	Cache string
	// Empty reports a provably empty expression (every disjunct LP-
	// infeasible); NeedsProjection reports an ∃ plan, whose existential
	// coordinates the executor eliminates by Fourier–Motzkin within an
	// atom budget. For such a plan Cache "hit" means its eliminated
	// relation is prepared and warm, and "negative" means the plan is
	// past the budget and runs on Algorithm 2's per-call engine.
	Empty, NeedsProjection bool
	// SymbolicOnly reports an expression outside the existential
	// sampling fragment (Minus of a projection, Div): it has no
	// sampling plan and only the symbolic terminals apply.
	SymbolicOnly bool
	// SymbolicKey is the prepared-symbolic cache key of the
	// expression's eliminated relation; Symbolic its residency ("hit",
	// "negative" or "miss") — "hit" means EvalSymbolic/VolumeSymbolic
	// replay the eliminated DNF without re-running Fourier–Motzkin.
	SymbolicKey string
	Symbolic    string
	// Plan is the human-readable normalized plan (Plan.Describe).
	Plan string
	// Disjuncts describes each disjunct of the canonical plan.
	Disjuncts []DisjunctExplain

	// CompileNanos is the wall time of this expression's (memoized)
	// compile + canonicalization pass.
	CompileNanos int64
	// Stages aggregates the per-stage timings observed for this
	// expression so far: the compile pass plus whatever the cost table
	// has recorded under its keys (prepare, sample, bind, queue,
	// eliminate — an ∃ plan's elimination under CacheKey and a symbolic
	// evaluation's under SymbolicKey). Stages that never ran are
	// omitted.
	Stages []StageTiming
	// Observed is the expression's accumulated measured cost under
	// CacheKey (nil until a terminal verb has run); SymbolicObserved
	// the same under SymbolicKey (nil until EvalSymbolic or
	// VolumeSymbolic has run).
	Observed         *ObservedCost
	SymbolicObserved *ObservedCost

	// Quality is the statistical-quality diagnostics accumulated under
	// CacheKey — cell uniformity, member shares, mixing and the latest
	// self-audit verdict (nil until a draw has been observed).
	// AuditFlagged reports the entry quarantined by a failing audit; the
	// entry stays cached and keeps serving, but the flag (here and in
	// CacheStats) makes the quarantine visible.
	Quality      *QualityReport
	AuditFlagged bool
}

// String renders the report for terminals.
func (r *ExplainReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "columns: (%s)\n", strings.Join(r.Columns, ", "))
	fmt.Fprintf(&sb, "canonical key: %s\n", r.CanonicalKey)
	if r.SymbolicOnly {
		fmt.Fprintf(&sb, "symbolic cache: %s\n", r.Symbolic)
		sb.WriteString("outside the sampling fragment (∀ or negation under ∃): symbolic evaluation only\n")
		r.writeStages(&sb)
		return sb.String()
	}
	fmt.Fprintf(&sb, "cache: %s\n", r.Cache)
	if r.Symbolic != "" {
		fmt.Fprintf(&sb, "symbolic cache: %s\n", r.Symbolic)
	}
	if r.Empty {
		sb.WriteString("provably empty: every disjunct is LP-infeasible (volume 0)\n")
		return sb.String()
	}
	sb.WriteString(r.Plan)
	for i, d := range r.Disjuncts {
		fmt.Fprintf(&sb, "  disjunct %d: cache %s (%s)\n", i, d.Cache, d.CanonicalKey)
		if d.Observed != nil {
			fmt.Fprintf(&sb, "    observed: %s\n", observedLine(d.Observed))
		}
	}
	r.writeStages(&sb)
	if r.Observed != nil {
		fmt.Fprintf(&sb, "observed: %s\n", observedLine(r.Observed))
	}
	if r.Quality != nil {
		fmt.Fprintf(&sb, "quality: %s\n", qualityLine(r.Quality))
	}
	return sb.String()
}

// qualityLine renders the headline quality diagnostics on one line.
func qualityLine(q *QualityReport) string {
	var parts []string
	parts = append(parts, fmt.Sprintf("samples=%d", q.Samples))
	if q.ChiSquareDOF > 0 {
		parts = append(parts, fmt.Sprintf("chi2=%.2f (dof=%d p=%.3f)", q.ChiSquare, q.ChiSquareDOF, q.PValue))
	}
	if q.AcceptanceRate > 0 {
		parts = append(parts, fmt.Sprintf("accept=%.3f", q.AcceptanceRate))
	}
	if q.RoundsPerSample > 0 {
		parts = append(parts, fmt.Sprintf("rounds/sample=%.2f", q.RoundsPerSample))
	}
	if q.ESSWindow > 0 {
		parts = append(parts, fmt.Sprintf("ess=%.0f/%d", q.ESS, q.ESSWindow))
	}
	if q.Audited {
		parts = append(parts, fmt.Sprintf("audit=%s (rounds=%d)", q.AuditOutcome, q.AuditRounds))
	}
	if q.Flagged {
		parts = append(parts, "FLAGGED")
	}
	return strings.Join(parts, " ")
}

// writeStages renders the per-stage timing rows, if any.
func (r *ExplainReport) writeStages(sb *strings.Builder) {
	if len(r.Stages) == 0 {
		return
	}
	sb.WriteString("stages:\n")
	for _, s := range r.Stages {
		fmt.Fprintf(sb, "  %-9s %12v  ×%d\n", s.Stage, time.Duration(s.Nanos), s.Count)
	}
}

// observedLine renders the non-zero counters of an observed cost on
// one line.
func observedLine(c *ObservedCost) string {
	var parts []string
	add := func(name string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("draws", c.Draws)
	add("samples", c.Samples)
	add("coalesced", c.Coalesced)
	add("walk_steps", c.WalkSteps)
	add("walk_accepted", c.WalkAccepted)
	add("oracle_calls", c.OracleCalls)
	add("rounds", c.Rounds)
	add("accepts", c.Accepts)
	add("evals", c.Evals)
	add("elim_rounds", c.ElimRounds)
	add("elim_vars", c.ElimVars)
	add("atoms_in", c.AtomsIn)
	add("atoms_out", c.AtomsOut)
	if len(parts) == 0 {
		return "(nothing recorded)"
	}
	return strings.Join(parts, " ")
}

// cacheStateLabel renders a Peek result.
func cacheStateLabel(cached, negative bool) string {
	switch {
	case !cached:
		return "miss"
	case negative:
		return "negative"
	default:
		return "hit"
	}
}

// Explain compiles the expression and reports its canonical plan, key
// and cache residency without preparing any geometry: a cold Explain
// leaves the cache untouched, so "miss" means a terminal verb would pay
// the preparation pass.
func (e *Expr) Explain(ctx context.Context) (*ExplainReport, error) {
	if err := e.db.check(ctx); err != nil {
		return nil, err
	}
	cp, err := e.compile()
	if err != nil {
		if !errors.Is(err, ErrUnsupportedQuery) {
			return nil, err
		}
		// Outside the sampling fragment: no plan exists, but the
		// symbolic terminals apply — report their cache residency.
		return e.explainSymbolicOnly()
	}
	opts := e.effectiveOptions()
	optsKey := opts.CacheKey()
	key := runtime.PlanKey(e.db.entry.ID, cp.Key, optsKey)
	cached, negative := e.db.rt.Cache().Peek(key)
	// In-fragment expressions share the canonical plan key between the
	// sampler and symbolic caches, so the symbolic residency needs no
	// separate compile.
	skey := runtime.SymbolicKey(e.db.entry.ID, cp.Key)
	scached, snegative := e.db.rt.SymbolicCache().Peek(skey)
	rep := &ExplainReport{
		Columns:         append([]string(nil), cp.Plan.OutVars...),
		CanonicalKey:    cp.Key,
		CacheKey:        key,
		Cache:           cacheStateLabel(cached, negative),
		Empty:           cp.Empty(),
		NeedsProjection: cp.NeedsProjection(),
		SymbolicKey:     skey,
		Symbolic:        cacheStateLabel(scached, snegative),
		Plan:            cp.Plan.Describe(),
	}
	dkeys := cp.DisjunctKeys()
	for i, d := range cp.Plan.Disjuncts {
		kind := "convex"
		if d.ExVars > 0 {
			kind = "projection"
		}
		dkey := runtime.PlanKey(e.db.entry.ID, dkeys[i], optsKey)
		dcached, dnegative := e.db.rt.Cache().Peek(dkey)
		de := DisjunctExplain{
			Kind:         kind,
			Dim:          d.Poly.Dim(),
			Constraints:  d.Poly.Rows(),
			ExVars:       d.ExVars,
			CanonicalKey: dkeys[i],
			Cache:        cacheStateLabel(dcached, dnegative),
		}
		// The executor attributes each draw's walk effort per union
		// member under "key#i" — the observed per-disjunct cost.
		if snap, ok := e.db.rt.Costs().Snapshot(fmt.Sprintf("%s#%d", key, i)); ok {
			de.Observed = &snap
		}
		rep.Disjuncts = append(rep.Disjuncts, de)
	}
	rep.CompileNanos = e.compileNanos
	if snap, ok := e.db.rt.Costs().Snapshot(key); ok {
		rep.Observed = &snap
	}
	if snap, ok := e.db.rt.Costs().Snapshot(skey); ok {
		rep.SymbolicObserved = &snap
	}
	if q, ok := e.db.rt.Quality().Report(key); ok {
		rep.Quality = &q
		rep.AuditFlagged = q.Flagged
	}
	rep.Stages = stageTimings(e.compileNanos, rep.Observed, rep.SymbolicObserved)
	return rep, nil
}

// explainSymbolicOnly reports the expression through the symbolic
// pipeline's eyes: the symbolic cache key and residency, with no
// sampling plan. It serves full-FO expressions (which have no sampling
// plan at all) and `EXPLAIN SYMBOLIC` SQL statements (which request
// this view explicitly).
func (e *Expr) explainSymbolicOnly() (*ExplainReport, error) {
	sq, serr := e.compileSymbolic()
	if serr != nil {
		return nil, serr
	}
	skey := runtime.SymbolicKey(e.db.entry.ID, sq.Key)
	scached, snegative := e.db.rt.SymbolicCache().Peek(skey)
	rep := &ExplainReport{
		Columns:      append([]string(nil), sq.OutVars...),
		CanonicalKey: sq.Key,
		SymbolicOnly: true,
		SymbolicKey:  skey,
		Symbolic:     cacheStateLabel(scached, snegative),
	}
	if snap, ok := e.db.rt.Costs().Snapshot(skey); ok {
		rep.SymbolicObserved = &snap
	}
	rep.Stages = stageTimings(0, nil, rep.SymbolicObserved)
	return rep, nil
}

// stageTimings folds the compile pass and the observed cost snapshots
// into the per-stage timing rows of an ExplainReport.
func stageTimings(compileNanos int64, observed, symbolic *ObservedCost) []StageTiming {
	var st []StageTiming
	if compileNanos > 0 {
		st = append(st, StageTiming{Stage: "compile", Count: 1, Nanos: compileNanos})
	}
	if observed != nil {
		for _, row := range []StageTiming{
			{Stage: "prepare", Count: observed.Preps, Nanos: observed.PrepNanos},
			{Stage: "sample", Count: observed.Draws, Nanos: observed.SampleNanos},
			{Stage: "bind", Count: observed.Binds, Nanos: observed.BindNanos},
			{Stage: "queue", Count: observed.Draws, Nanos: observed.QueueNanos},
		} {
			if row.Count > 0 || row.Nanos > 0 {
				st = append(st, row)
			}
		}
	}
	// The plan cache eliminates an ∃ plan before preparing it, and the
	// symbolic cache for EvalSymbolic/VolumeSymbolic; one row counts
	// both passes.
	elim := StageTiming{Stage: "eliminate"}
	for _, c := range []*ObservedCost{observed, symbolic} {
		if c != nil {
			elim.Count += c.Evals
			elim.Nanos += c.ElimNanos
		}
	}
	if elim.Count > 0 {
		st = append(st, elim)
	}
	return st
}
