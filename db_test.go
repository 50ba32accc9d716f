package cdb_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/dataset"
)

const handleProgram = `
rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };
rel U(x, y) := { 0 <= x <= 1, 0 <= y <= 1 } | { 2 <= x <= 3, 0 <= y <= 1 };
query Q(x)  := exists y. S(x, y);
`

// overBudgetProgram declares Ball, 40 planes tangent to the unit ball,
// and Far := ∃z Ball. Eliminating z pairs 20 upper with 20 lower bounds, 400
// atoms before pruning, past the elimination budget, so Far runs on
// Algorithm 2's per-call engine while Q := ∃y S is served warm.
var overBudgetProgram = "\n" + constraint.MustRelation("Ball", []string{"x", "y", "z"},
	dataset.TangentBall(40).Tuple()).Source() + "\nquery Far(x, y) := exists z. Ball(x, y, z);\n"

// requireWarmProjection asserts that the ∃ expression e is served warm:
// a prepared entry under its plan key whose seeded draws lie in the
// exact Fourier–Motzkin elimination of e.
func requireWarmProjection(t *testing.T, e *cdb.Expr) {
	t.Helper()
	ctx := context.Background()
	if _, err := e.Sampler(ctx); err != nil {
		t.Fatalf("Sampler on a within-budget ∃ plan = %v, want a warm entry", err)
	}
	rep, err := e.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NeedsProjection || rep.Cache != "hit" {
		t.Fatalf("∃ plan: NeedsProjection %v, cache %q under %q; want a warm entry", rep.NeedsProjection, rep.Cache, rep.CacheKey)
	}
	exact, err := e.EvalSymbolic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.SampleNSeeded(ctx, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !exact.Contains(p) {
			t.Fatalf("warm ∃ draw %v outside the eliminated relation %v", p, exact)
		}
	}
}

func TestOpenSampleVolume(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	pts, err := db.SampleN(ctx, "S", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("got %d points, want 50", len(pts))
	}
	for _, p := range pts {
		if len(p) != 2 || p[0] < 0 || p[1] < 0 || p[0]+p[1] > 1+1e-9 {
			t.Fatalf("point %v outside S", p)
		}
	}

	// Triangle area 1/2; the estimate must be within the configured ε
	// with slack for the default parameters.
	v, err := db.Volume(ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 0.25 {
		t.Fatalf("volume(S) = %g, want ≈ 0.5", v)
	}

	// Volume is deterministic per handle configuration (prepared path).
	v2, err := db.Volume(ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	if v != v2 {
		t.Fatalf("volume not deterministic: %g vs %g", v, v2)
	}

	// Union target: two unit boxes, area 2.
	uv, err := db.Volume(ctx, "U")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uv-2) > 1 {
		t.Fatalf("volume(U) = %g, want ≈ 2", uv)
	}
}

func TestDBQuerySurface(t *testing.T) {
	db, err := cdb.Open(handleProgram + overBudgetProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	// Q projects the triangle onto [0, 1].
	v, err := db.QueryVolume(ctx, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 2 {
		t.Fatalf("query volume = %g, want in (0, 2]", v)
	}

	obs, err := db.Query(ctx, "Q")
	if err != nil {
		t.Fatal(err)
	}
	x, err := obs.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 1 || x[0] < -1e-9 || x[0] > 1+1e-9 {
		t.Fatalf("query sample %v outside [0, 1]", x)
	}

	if _, err := db.Query(ctx, "nope"); err == nil {
		t.Fatal("unknown query should error")
	}

	// Past the elimination budget, SampleN and Volume fall back to the
	// engine (no prepared sampler exists for the plan).
	pts, err := db.SampleN(ctx, "Far", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d query samples, want 5", len(pts))
	}
	if _, err := db.Sampler(ctx, "Far"); !errors.Is(err, cdb.ErrNeedsProjection) {
		t.Fatalf("Sampler(Far) = %v, want ErrNeedsProjection", err)
	}
	if _, err := db.Volume(ctx, "Far"); err != nil {
		t.Fatalf("Volume(Far) fallback: %v", err)
	}

	// Within it, Q is served warm from its eliminated relation.
	requireWarmProjection(t, db.Rel("Q"))
	pts, err = db.SampleN(ctx, "Q", 5)
	if err != nil || len(pts) != 5 {
		t.Fatalf("SampleN(Q): %d points, %v", len(pts), err)
	}
	if _, err := db.Volume(ctx, "Q"); err != nil {
		t.Fatalf("Volume(Q): %v", err)
	}
}

func TestDBSamplerSharedAcrossGoroutines(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// 50 concurrent requests for the same cold target must share one
	// prepared sampler (singleflight), pointer-identically.
	const clients = 50
	results := make([]*cdb.PreparedSampler, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps, err := db.Sampler(context.Background(), "S")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = ps
		}(i)
	}
	wg.Wait()
	for i, ps := range results {
		if ps != results[0] {
			t.Fatalf("client %d received a different prepared sampler", i)
		}
	}
}

func TestDBSamplesIterator(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	got := 0
	for p, err := range db.Samples(context.Background(), "S") {
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 2 {
			t.Fatalf("point %v is not 2-D", p)
		}
		got++
		if got == 7 {
			break
		}
	}
	if got != 7 {
		t.Fatalf("iterator yielded %d points, want 7", got)
	}

	// A cancelled context surfaces as the iterator's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range db.Samples(ctx, "S") {
		if err == nil {
			t.Fatal("cancelled iterator yielded a point")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iterator error = %v, want context.Canceled", err)
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("cancelled iterator yielded nothing")
	}
}

func TestDBClose(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := db.SampleN(context.Background(), "S", 1); !errors.Is(err, cdb.ErrClosed) {
		t.Fatalf("SampleN after close = %v, want ErrClosed", err)
	}
	if _, err := db.Volume(context.Background(), "S"); !errors.Is(err, cdb.ErrClosed) {
		t.Fatalf("Volume after close = %v, want ErrClosed", err)
	}
}

func TestDBSpacetimeSurface(t *testing.T) {
	prog := `
rel A(x, y, t) := { 0 <= t <= 10, t <= x <= t + 1, 0 <= y <= 1 };
`
	db, err := cdb.Open(prog)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	ps, err := db.TimeSlice(ctx, "A", 5.5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ps.VolumeCtx(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 0.5 {
		t.Fatalf("slice area = %g, want ≈ 1", v)
	}

	// Out-of-support slice: ErrEmptySlice on the first (cold) call and
	// on the cached replay.
	for i := 0; i < 2; i++ {
		if _, err := db.TimeSlice(ctx, "A", 99); !errors.Is(err, cdb.ErrEmptySlice) {
			t.Fatalf("call %d: err = %v, want ErrEmptySlice", i, err)
		}
	}

	lo, hi, ok := db.TimeSupportOf("A")
	if !ok || lo > 1e-9 || math.Abs(hi-10) > 1e-6 {
		t.Fatalf("support = [%g, %g] ok=%v, want [0, 10]", lo, hi, ok)
	}
}

func TestDBAlibi(t *testing.T) {
	prog := `
rel A(x, y, t) := { 0 <= t <= 10, t <= x <= t + 1, 0 <= y <= 1 };
rel B(x, y, t) := { 0 <= t <= 10, t - 0.5 <= x <= t + 0.5, 0 <= y <= 1 };
rel Far(x, y, t) := { 0 <= t <= 10, 100 <= x <= 101, 0 <= y <= 1 };
`
	db, err := cdb.Open(prog)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	rep, err := db.Alibi(ctx, "A", "B", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Meet || !rep.SymbolicMeet || !rep.Consistent {
		t.Fatalf("A/B should meet consistently: %+v", rep)
	}

	rep, err = db.Alibi(ctx, "A", "Far", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meet || rep.SymbolicMeet || !rep.Consistent {
		t.Fatalf("A/Far should be refuted consistently: %+v", rep)
	}

	if _, err := db.Alibi(ctx, "A", "B", 5, 1); err == nil {
		t.Fatal("inverted window should error")
	}

	// Median-of-k means k independent preparations: on the single-tuple
	// A/B meet region (exact volume 10 · 0.5 · 1 = 5) k = 3 must not
	// return the one warm preparation-time estimate k = 1 returns.
	one, err := db.AlibiSeeded(ctx, "A", "B", 0, 10, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := db.AlibiSeeded(ctx, "A", "B", 0, 10, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if three.Volume == one.Volume {
		t.Fatalf("k = 3 volume %v is the k = 1 estimate: the median amplified nothing", three.Volume)
	}
	if eps := cdb.DefaultOptions().Params.Eps; math.Abs(three.Volume-5) > eps*5 {
		t.Fatalf("k = 3 volume %v, want (1±%g)·5", three.Volume, eps)
	}
}
