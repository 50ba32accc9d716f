package cdb_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	cdb "repro"
)

// TestStartTraceSpanTree: a traced SampleN grows the
// expr.sample → {expr.prepare, sample.batch} stage tree, and the
// String rendering carries the trace id and the stage names.
func TestStartTraceSpanTree(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, root := cdb.StartTrace(context.Background(), "req")
	if _, err := db.Rel("S").SampleN(ctx, 16); err != nil {
		t.Fatal(err)
	}
	root.End()

	if root.TraceID() == "" {
		t.Fatal("root span has no trace id")
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "expr.sample" {
		t.Fatalf("root children = %v, want one expr.sample", kids)
	}
	var names []string
	kids[0].Walk(func(s *cdb.Span, depth int) { names = append(names, s.Name()) })
	joined := strings.Join(names, " ")
	for _, want := range []string{"expr.sample", "expr.prepare", "sample.batch"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stage %q missing from span tree %q", want, joined)
		}
	}
	rendered := root.String()
	if !strings.Contains(rendered, root.TraceID()) || !strings.Contains(rendered, "sample.batch") {
		t.Fatalf("rendered tree missing trace id or stages:\n%s", rendered)
	}

	// Untraced contexts stay span-free.
	if cdb.SpanFromContext(context.Background()) != nil {
		t.Fatal("background context claims a span")
	}
	if cdb.SpanFromContext(ctx) != root {
		t.Fatal("traced context does not yield its root span")
	}
}

// TestCacheStatsPerKind: the per-kind breakdowns attribute traffic to
// the right cache and count current (and negative) entries.
func TestCacheStatsPerKind(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	// Plan kind: one cold build, one warm replay.
	if _, err := db.Sampler(ctx, "S"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Sampler(ctx, "S"); err != nil {
		t.Fatal(err)
	}
	st := db.CacheStats()
	if st.Plan.Misses != 1 || st.Plan.Hits != 1 {
		t.Fatalf("plan stats = %+v, want 1 miss / 1 hit", st.Plan)
	}
	if st.Plan.Entries != 1 || st.Plan.NegativeEntries != 0 {
		t.Fatalf("plan residency = %+v, want 1 entry, 0 negative", st.Plan)
	}
	if st.Symbolic.Misses != 0 || st.Alibi.Misses != 0 {
		t.Fatalf("unexpected non-plan traffic: %+v", st)
	}

	// Symbolic kind: an elimination populates its own cache.
	if _, err := db.Rel("Q").EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	st = db.CacheStats()
	if st.Symbolic.Misses != 1 || st.Symbolic.Entries != 1 {
		t.Fatalf("symbolic stats = %+v, want 1 miss / 1 entry", st.Symbolic)
	}
	if st.Plan.Misses != 1 {
		t.Fatalf("symbolic traffic bled into plan stats: %+v", st.Plan)
	}

	// A provably empty expression caches as a plan-kind negative entry
	// and replays as a negative hit.
	empty := db.Rel("S").Where(cdb.NewAtom(cdb.Vector{1, 0}, -5, false)) // x <= -5
	if _, err := empty.Volume(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Volume(ctx); err != nil {
		t.Fatal(err)
	}
	st = db.CacheStats()
	if st.Plan.NegativeEntries != 1 {
		t.Fatalf("plan negative residency = %+v, want 1", st.Plan)
	}
	if st.Plan.NegativeHits < 1 {
		t.Fatalf("plan negative hits = %+v, want >= 1", st.Plan)
	}

	// The legacy aggregates stay the sums of the kinds.
	if want := st.Plan.Misses + st.Symbolic.Misses + st.Alibi.Misses; st.Misses != want {
		t.Fatalf("aggregate misses = %d, want %d", st.Misses, want)
	}
	wantHits := st.Plan.Hits + st.Plan.NegativeHits +
		st.Symbolic.Hits + st.Symbolic.NegativeHits +
		st.Alibi.Hits + st.Alibi.NegativeHits
	if st.Hits != wantHits {
		t.Fatalf("aggregate hits = %d, want %d", st.Hits, wantHits)
	}
}

// TestExplainObservedCosts: after a draw, Explain reports per-stage
// timings and the observed whole-expression and per-disjunct costs.
func TestExplainObservedCosts(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	e := db.Rel("U") // two disjuncts: observed costs split per member
	if _, err := e.SampleN(ctx, 64); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompileNanos <= 0 {
		t.Fatal("no compile timing recorded")
	}
	stages := map[string]cdb.StageTiming{}
	for _, s := range rep.Stages {
		stages[s.Stage] = s
	}
	for _, want := range []string{"compile", "prepare", "sample", "bind"} {
		if stages[want].Nanos <= 0 && stages[want].Count <= 0 {
			t.Fatalf("stage %q missing or empty in %+v", want, rep.Stages)
		}
	}
	if rep.Observed == nil {
		t.Fatal("no observed cost for the expression")
	}
	if rep.Observed.Preps != 1 || rep.Observed.Draws != 1 || rep.Observed.Samples != 64 {
		t.Fatalf("observed = %+v", rep.Observed)
	}
	if rep.Observed.WalkSteps <= 0 || rep.Observed.OracleCalls <= 0 {
		t.Fatalf("observed walk effort missing: %+v", rep.Observed)
	}
	var attributed int64
	for i, d := range rep.Disjuncts {
		if d.Observed == nil {
			t.Fatalf("disjunct %d has no observed cost", i)
		}
		attributed += d.Observed.WalkSteps
	}
	if attributed != rep.Observed.WalkSteps {
		t.Fatalf("per-disjunct walk steps %d != total %d", attributed, rep.Observed.WalkSteps)
	}
	out := rep.String()
	for _, want := range []string{"stages:", "observed:", "walk_steps="} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}

	// The same keys are queryable directly off the handle.
	if _, ok := db.ObservedCost(rep.CacheKey); !ok {
		t.Fatalf("no handle-level cost under %q", rep.CacheKey)
	}
	if len(db.ObservedCosts()) == 0 {
		t.Fatal("ObservedCosts returned nothing")
	}
}

// TestExplainEliminateStage: an ∃ plan within the elimination budget
// records its Fourier–Motzkin pass under its plan key, which Explain
// reports as the eliminate stage next to the preparation; a symbolic
// evaluation adds to the same row. Past the budget the refused attempt
// is recorded with no round run, and the cache reads "negative".
func TestExplainEliminateStage(t *testing.T) {
	db, err := cdb.Open(handleProgram + overBudgetProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	eliminate := func(rep *cdb.ExplainReport) cdb.StageTiming {
		for _, s := range rep.Stages {
			if s.Stage == "eliminate" {
				return s
			}
		}
		return cdb.StageTiming{}
	}
	q := db.Rel("Q") // exists y. S(x, y)
	if _, err := q.SampleN(ctx, 16); err != nil {
		t.Fatal(err)
	}
	rep, err := q.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Observed
	if rep.Cache != "hit" || o == nil {
		t.Fatalf("∃ plan: cache %q, observed %+v; want a warm entry with costs", rep.Cache, o)
	}
	if o.Evals != 1 || o.ElimRounds != 1 || o.ElimVars != 1 || o.AtomsIn != 3 || o.AtomsOut != 2 || o.Preps != 1 {
		t.Fatalf("observed elimination %+v, want one round of 3 → 2 atoms, then one preparation", o)
	}
	if s := eliminate(rep); s.Count != 1 || s.Nanos != o.ElimNanos || s.Nanos <= 0 {
		t.Fatalf("eliminate stage %+v, want ×1 taking %d ns", s, o.ElimNanos)
	}
	if !strings.Contains(rep.String(), "eliminate") {
		t.Fatalf("rendered report has no eliminate row:\n%s", rep)
	}
	if _, err := q.EvalSymbolic(ctx); err != nil {
		t.Fatal(err)
	}
	if rep, err = q.Explain(ctx); err != nil {
		t.Fatal(err)
	}
	if s := eliminate(rep); s.Count != 2 {
		t.Fatalf("eliminate stage after EvalSymbolic %+v, want ×2", s)
	}

	far := db.Rel("Far")
	if _, err := far.Sampler(ctx); !errors.Is(err, cdb.ErrNeedsProjection) {
		t.Fatalf("Sampler(Far) = %v, want ErrNeedsProjection", err)
	}
	rep, err = far.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if o := rep.Observed; rep.Cache != "negative" || o == nil || o.Evals != 1 || o.ElimRounds != 0 || o.AtomsIn != 40 || o.AtomsOut != 0 {
		t.Fatalf("over-budget plan: cache %q, observed %+v; want a negative entry whose refused round ran nothing", rep.Cache, o)
	}
}
