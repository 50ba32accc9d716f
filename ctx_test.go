package cdb_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	cdb "repro"
)

// slowOptions makes every single sample pay a multi-million-step walk
// epoch while keeping the one-off preparation affordable (one phase
// sample per telescoping phase), so a cancelled context must abort
// inside an epoch, not between samples.
func slowOptions() cdb.Option {
	return cdb.WithOptions(cdb.Options{
		Params:          cdb.Params{Gamma: 0.2, Eps: 0.25, Delta: 0.1},
		Walk:            cdb.WalkHitAndRun,
		WalkSteps:       1_200_000,
		MaxPhaseSamples: 1,
	})
}

const slowProgram = `
rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };
rel U(x, y) := { 0 <= x <= 1, 0 <= y <= 1 } | { 2 <= x <= 3, 0 <= y <= 1 };
`

// TestSampleNCancelledMidWalk: a deadline that fires inside the first
// walk epoch must surface ctx.Err() promptly — within a small multiple
// of the epoch the walker was in when the deadline hit, never after the
// full draw.
func TestSampleNCancelledMidWalk(t *testing.T) {
	db, err := cdb.Open(slowProgram, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Warm the prepared geometry under a background context, so the
	// timed phase below measures only the draw.
	if _, err := db.Sampler(context.Background(), "S"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.SampleNSeeded(ctx, "S", 16, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SampleN error = %v, want context.DeadlineExceeded", err)
	}
	// 16 samples × 1.2M steps would run for many seconds; an in-epoch
	// abort returns within roughly one epoch past the deadline (bound is
	// generous for slow race-instrumented CI runners).
	if elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestVolumeCancelledMidWalk: the union acceptance pass of a
// multi-tuple relation (which the single-tuple fast path does not
// cover) must honour the deadline inside its member walks.
func TestVolumeCancelledMidWalk(t *testing.T) {
	db, err := cdb.Open(slowProgram, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Sampler(context.Background(), "U"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.Volume(ctx, "U")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Volume error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestCancelledBatchDoesNotLeakWorkers: cancelled batched draws must
// return their workers to the pool — later draws on the same handle
// still complete, and the process goroutine count returns to baseline.
func TestCancelledBatchDoesNotLeakWorkers(t *testing.T) {
	db, err := cdb.Open(handleProgram, cdb.WithPoolSize(2), cdb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Sampler(context.Background(), "S"); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // cancelled before (or during) the draw
		if _, err := db.SampleNSeeded(ctx, "S", 10_000, uint64(i)); !errors.Is(err, context.Canceled) {
			t.Fatalf("draw %d: err = %v, want context.Canceled", i, err)
		}
	}

	// The pool must still serve work after the cancelled draws.
	pts, err := db.SampleNSeeded(context.Background(), "S", 64, 99)
	if err != nil || len(pts) != 64 {
		t.Fatalf("post-cancel draw: %d points, err %v", len(pts), err)
	}

	// Give transient worker goroutines a moment to drain, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+4 {
		t.Fatalf("goroutines grew from %d to %d after cancelled draws", baseline, g)
	}
}

// TestPreCancelledCallsShortCircuit: an already-cancelled context never
// reaches the samplers.
func TestPreCancelledCallsShortCircuit(t *testing.T) {
	db, err := cdb.Open(handleProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := db.Sampler(ctx, "S"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sampler = %v, want context.Canceled", err)
	}
	if _, err := db.Volume(ctx, "S"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Volume = %v, want context.Canceled", err)
	}
	if _, err := db.Query(ctx, "Q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query = %v, want context.Canceled", err)
	}
}

// TestQueryVolumeCancelledMidWalk: Algorithm 2's volume path (an
// ∃-query past the elimination budget has no prepared sampler) must
// also surface ctx.Err() from inside its sampling loops. An ∃-query
// within the budget is served warm: its volume is the preparation-time
// estimate of its eliminated relation.
func TestQueryVolumeCancelledMidWalk(t *testing.T) {
	db, err := cdb.Open(slowProgram+"\nquery Q(x) := exists y. S(x, y);\n"+overBudgetProgram, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.QueryVolume(ctx, "Far")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryVolume error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}

	requireWarmProjection(t, db.Rel("Q"))
	want, err := db.Rel("Q").Volume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := db.QueryVolume(context.Background(), "Q"); err != nil || v != want {
		t.Fatalf("warm QueryVolume(Q) = %v, %v; want the warm entry's estimate %v", v, err, want)
	}
}
