package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/walk"
)

const motionProgram = `
rel A(x, y, t) := { 0 <= t <= 10, t <= x <= t + 1, 0 <= y <= 1 };
rel B(x, y, t) := { 0 <= t <= 10, t - 0.5 <= x <= t + 0.5, 0 <= y <= 1 };
rel Far(x, y, t) := { 0 <= t <= 10, 100 <= x <= 101, 0 <= y <= 1 };
`

func testOptions() core.Options {
	return core.Options{Params: core.DefaultParams(), Walk: walk.HitAndRun}
}

func newTestRuntime(t *testing.T) (*Runtime, *DatabaseEntry, *recordingSink) {
	t.Helper()
	sink := newRecordingSink()
	rt := NewWithSink(Config{PoolSize: 2, CacheSize: 8}, sink)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("motion", motionProgram)
	if err != nil {
		t.Fatal(err)
	}
	return rt, entry, sink
}

// TestEmptySliceNegativeCache: an out-of-support slice fails its first
// build, but the verdict is cached — the replay is a hit that never
// re-runs the slicing/support analysis.
func TestEmptySliceNegativeCache(t *testing.T) {
	rt, entry, sink := newTestRuntime(t)
	opts := testOptions()

	_, _, hit, err := rt.PreparedSlice(entry, "A", 99, opts)
	if !errors.Is(err, ErrEmptySlice) {
		t.Fatalf("cold empty slice: err = %v, want ErrEmptySlice", err)
	}
	if hit {
		t.Fatal("cold empty slice reported a hit")
	}
	misses := sink.count(obs.KindPlan, obs.Miss)

	_, _, hit, err = rt.PreparedSlice(entry, "A", 99, opts)
	if !errors.Is(err, ErrEmptySlice) {
		t.Fatalf("replay: err = %v, want ErrEmptySlice", err)
	}
	if !hit {
		t.Fatal("replayed empty slice should be a (negative) cache hit")
	}
	if sink.count(obs.KindPlan, obs.Miss) != misses {
		t.Fatal("replay re-ran the failed build")
	}

	// Negative entries live in the same LRU as positive ones.
	if rt.Cache().Len() != 1 {
		t.Fatalf("cache len = %d, want 1 negative entry", rt.Cache().Len())
	}

	// A transient error (unknown relation) is still not cached.
	if _, _, _, err := rt.PreparedSlice(entry, "Nope", 1, opts); !errors.Is(err, ErrTargetNotFound) {
		t.Fatalf("unknown relation: %v", err)
	}
	if rt.Cache().Len() != 1 {
		t.Fatalf("cache len = %d after transient failure, want 1", rt.Cache().Len())
	}
}

// TestPreparedAlibiCacheReplay: the second identical alibi request hits
// the prepared-alibi cache and binds only seeds; reports are
// deterministic per seed and consistent across the two paths.
func TestPreparedAlibiCacheReplay(t *testing.T) {
	rt, entry, _ := newTestRuntime(t)
	opts := testOptions()
	ctx := context.Background()

	pa1, hit, err := rt.PreparedAlibi(entry, "A", "B", 0, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold alibi reported a hit")
	}
	pa2, hit, err := rt.PreparedAlibi(entry, "A", "B", 0, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || pa1 != pa2 {
		t.Fatalf("replay should share the prepared alibi (hit=%v, same=%v)", hit, pa1 == pa2)
	}

	rep1, err := pa1.Report(ctx, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := pa2.Report(ctx, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Volume != rep2.Volume || rep1.Meet != rep2.Meet {
		t.Fatalf("same-seed replays disagree: %+v vs %+v", rep1, rep2)
	}
	if !rep1.Meet || !rep1.SymbolicMeet || !rep1.Consistent {
		t.Fatalf("A/B should meet consistently: %+v", rep1)
	}

	// Refuted pair, including the empty-meet fast path (no sampler).
	far, _, err := rt.PreparedAlibi(entry, "A", "Far", 0, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := far.Report(ctx, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meet || rep.SymbolicMeet || !rep.Consistent {
		t.Fatalf("A/Far should be refuted consistently: %+v", rep)
	}
}

// TestPreparedAlibiMedianCancelled: a k > 1 report prepares its k
// estimators afresh, and a cancelled context stops their walks.
func TestPreparedAlibiMedianCancelled(t *testing.T) {
	rt, entry, _ := newTestRuntime(t)
	pa, _, err := rt.PreparedAlibi(entry, "A", "B", 0, 10, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pa.Report(ctx, 7, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("median-of-3 report under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestExecPinnedPrepSeed: an explicit preparation seed produces the
// same prepared geometry on every process (here: two runtimes).
func TestExecPinnedPrepSeed(t *testing.T) {
	rt1, e1, _ := newTestRuntime(t)
	rt2, e2, _ := newTestRuntime(t)
	opts := testOptions()

	prepared := func(rt *Runtime, e *DatabaseEntry) *Prepared {
		t.Helper()
		cp, err := e.Plan("A")
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(123)
		x, err := rt.Exec(e, cp, opts, &seed)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := x.Sampler()
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	ps1, ps2 := prepared(rt1, e1), prepared(rt2, e2)
	a, err := ps1.SampleMany(16, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ps2.SampleMany(16, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("sample %d differs across identically seeded preparations", i)
			}
		}
	}
}

// TestCacheNegativeMarker: the marker survives wrapping and is not
// triggered by plain errors.
func TestCacheNegativeMarker(t *testing.T) {
	base := errors.New("boom")
	if IsNegative(base) {
		t.Fatal("plain error is not negative")
	}
	neg := Negative(base)
	if !IsNegative(neg) || !errors.Is(neg, base) {
		t.Fatal("Negative must mark and preserve the cause")
	}

	cache := NewKindCache[*constraint.Relation](2, obs.KindSymbolic, nil)
	calls := 0
	_, _, err := cache.Get("k", func() (*constraint.Relation, error) {
		calls++
		return nil, Negative(base)
	})
	if !errors.Is(err, base) {
		t.Fatal(err)
	}
	_, hit, err := cache.Get("k", func() (*constraint.Relation, error) {
		calls++
		return nil, Negative(base)
	})
	if !errors.Is(err, base) || !hit || calls != 1 {
		t.Fatalf("negative replay: hit=%v calls=%d err=%v", hit, calls, err)
	}
}

// TestCoalescedWaiterSurvivesInitiatorCancel: a waiter coalesced onto a
// draw whose initiator gets cancelled must not inherit the initiator's
// ctx error — it takes the draw over under its own (live) context.
func TestCoalescedWaiterSurvivesInitiatorCancel(t *testing.T) {
	rt, entry, _ := newTestRuntime(t)
	ps, key, _, err := rt.PreparedFor(entry, "A", "", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	exec := rt.Executor()

	// Plant a fake in-flight draw under the executor's draw key and
	// finish it the way a cancelled initiator does: unregister, publish
	// ctx.Err(), signal ready.
	drawKey := fmt.Sprintf("%s|n=%d|w=%d|seed=%d", key, 64, 2, 7)
	d := &draw{ready: make(chan struct{})}
	exec.mu.Lock()
	exec.inflight[drawKey] = d
	exec.mu.Unlock()
	go func() {
		time.Sleep(20 * time.Millisecond)
		d.err = context.Canceled
		exec.mu.Lock()
		delete(exec.inflight, drawKey)
		exec.mu.Unlock()
		close(d.ready)
	}()

	pts, coalesced, err := exec.SampleManyCtx(context.Background(), key, ps, 64, 2, 7)
	if err != nil {
		t.Fatalf("waiter inherited the initiator's cancellation: %v", err)
	}
	if coalesced {
		t.Error("a takeover ran the draw itself and must not report coalesced")
	}
	want, err := ps.SampleMany(64, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(want) {
		t.Fatalf("takeover drew %d points, want %d", len(pts), len(want))
	}
	for i := range pts {
		for j := range pts[i] {
			if pts[i][j] != want[i][j] {
				t.Fatalf("takeover point %d differs from the deterministic draw", i)
			}
		}
	}
}

// TestNegativeEntriesDoNotEvictWarmGeometry: a sweep of distinct
// out-of-support probes must never push expensively prepared samplers
// out of the LRU — negatives park at the eviction end and cannibalise
// each other instead.
func TestNegativeEntriesDoNotEvictWarmGeometry(t *testing.T) {
	rt, entry, _ := newTestRuntime(t) // CacheSize 8
	opts := testOptions()

	// Warm four positive slices.
	for _, t0 := range []float64{1, 2, 3, 4} {
		if _, _, _, err := rt.PreparedSlice(entry, "A", t0, opts); err != nil {
			t.Fatalf("warm t0=%g: %v", t0, err)
		}
	}
	// Flood with twelve distinct empty probes (beyond capacity).
	for i := 0; i < 12; i++ {
		if _, _, _, err := rt.PreparedSlice(entry, "A", 1000+float64(i), opts); !errors.Is(err, ErrEmptySlice) {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	// Every warm positive must still be cached.
	for _, t0 := range []float64{1, 2, 3, 4} {
		_, _, hit, err := rt.PreparedSlice(entry, "A", t0, opts)
		if err != nil || !hit {
			t.Fatalf("warm t0=%g after negative flood: hit=%v err=%v", t0, hit, err)
		}
	}
	if got := rt.Cache().Len(); got > 8 {
		t.Fatalf("cache len = %d, want <= capacity 8", got)
	}
}

// TestNegativeReplayAtCapacity: with the cache full of warm positives,
// an empty probe's verdict must still be retained (displacing at most
// one positive, never itself), so the replay is an O(1) hit.
func TestNegativeReplayAtCapacity(t *testing.T) {
	rt := NewWithSink(Config{PoolSize: 1, CacheSize: 2}, nil)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("motion", motionProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()

	// Fill the cache to capacity with positive slices.
	for _, t0 := range []float64{1, 2} {
		if _, _, _, err := rt.PreparedSlice(entry, "A", t0, opts); err != nil {
			t.Fatalf("warm t0=%g: %v", t0, err)
		}
	}

	if _, _, hit, err := rt.PreparedSlice(entry, "A", 777, opts); !errors.Is(err, ErrEmptySlice) || hit {
		t.Fatalf("cold empty probe at capacity: hit=%v err=%v", hit, err)
	}
	if _, _, hit, err := rt.PreparedSlice(entry, "A", 777, opts); !errors.Is(err, ErrEmptySlice) || !hit {
		t.Fatalf("negative verdict evicted itself at capacity: hit=%v err=%v", hit, err)
	}
}

// overBudgetProgram declares Ball, 40 planes tangent to the unit ball,
// and Far := ∃z Ball: eliminating z predicts 20 × 20 = 400 atoms, past
// elimAtomBudget.
var overBudgetProgram = "\n" + constraint.MustRelation("Ball", []string{"x", "y", "z"},
	dataset.TangentBall(40).Tuple()).Source() + "\nquery Far(x, y) := exists z. Ball(x, y, z);\n"

// TestProjectionVerdictNegativeCached: the "needs the projection
// generator" verdict on an ∃-query past the elimination budget is
// deterministic in the program, so it is cached negatively — replays
// skip the planning pass. An ∃-query within the budget is prepared
// from its eliminated relation under the same plan key.
func TestProjectionVerdictNegativeCached(t *testing.T) {
	sink := newRecordingSink()
	rt := NewWithSink(Config{PoolSize: 1, CacheSize: 4}, sink)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("q", `
rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };
query Q(x)  := exists y. S(x, y);
`+overBudgetProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()

	_, _, hit, err := rt.PreparedFor(entry, "", "Far", opts)
	if !errors.Is(err, ErrNeedsProjection) || hit {
		t.Fatalf("cold ∃-query: hit=%v err=%v", hit, err)
	}
	misses := sink.count(obs.KindPlan, obs.Miss)
	_, _, hit, err = rt.PreparedFor(entry, "", "Far", opts)
	if !errors.Is(err, ErrNeedsProjection) || !hit {
		t.Fatalf("replayed ∃-query verdict should hit the cache: hit=%v err=%v", hit, err)
	}
	if sink.count(obs.KindPlan, obs.Miss) != misses {
		t.Fatal("replay re-ran the planning pass")
	}

	cp, err := entry.Plan("Q")
	if err != nil {
		t.Fatal(err)
	}
	x, err := rt.Exec(entry, cp, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Sampler(); err != nil || x.Hit {
		t.Fatalf("cold within-budget ∃-query: hit=%v err=%v, want a prepared entry", x.Hit, err)
	}
	if want := PlanKey(entry.ID, cp.Key, opts.CacheKey()); x.Key != want {
		t.Fatalf("∃-query prepared under %q, want its plan key %q", x.Key, want)
	}
	if _, _, hit, err := rt.PreparedFor(entry, "", "Q", opts); err != nil || !hit {
		t.Fatalf("replayed ∃-query should hit its warm entry: hit=%v err=%v", hit, err)
	}
	exact, err := cp.EvalSymbolic("exact")
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := x.SampleN(context.Background(), 64, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !exact.Contains(p) {
			t.Fatalf("warm ∃ draw %v outside the eliminated relation %v", p, exact)
		}
	}
}
