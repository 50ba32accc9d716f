package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// recordingSink counts events per (kind, outcome) plus the pool/draw
// events.
type recordingSink struct {
	mu        sync.Mutex
	events    map[obs.CacheKind]map[obs.CacheOutcome]int
	coalesced int
	jobs      int
}

func newRecordingSink() *recordingSink {
	return &recordingSink{events: map[obs.CacheKind]map[obs.CacheOutcome]int{}}
}

func (s *recordingSink) CacheEvent(kind obs.CacheKind, outcome obs.CacheOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.events[kind]
	if m == nil {
		m = map[obs.CacheOutcome]int{}
		s.events[kind] = m
	}
	m[outcome]++
}

func (s *recordingSink) CoalescedDraw() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.coalesced++
}

func (s *recordingSink) BatchJob() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs++
}

func (s *recordingSink) count(kind obs.CacheKind, outcome obs.CacheOutcome) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events[kind][outcome]
}

// TestSinkPerKindEvents: every cache kind reports its own events —
// plan misses/hits, symbolic misses/hits, alibi misses/hits — and
// negative verdicts surface as negative hits, not plain hits.
func TestSinkPerKindEvents(t *testing.T) {
	sink := newRecordingSink()
	rt := NewWithSink(Config{PoolSize: 2, CacheSize: 8}, sink)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("motion", motionProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	ctx := context.Background()

	// Plan kind: cold build then warm hit.
	if _, _, hit, err := rt.PreparedFor(entry, "A", "", opts); err != nil || hit {
		t.Fatalf("cold PreparedFor: hit=%v err=%v", hit, err)
	}
	if _, _, hit, err := rt.PreparedFor(entry, "A", "", opts); err != nil || !hit {
		t.Fatalf("warm PreparedFor: hit=%v err=%v", hit, err)
	}
	if got := sink.count(obs.KindPlan, obs.Miss); got != 1 {
		t.Fatalf("plan misses = %d, want 1", got)
	}
	if got := sink.count(obs.KindPlan, obs.Hit); got != 1 {
		t.Fatalf("plan hits = %d, want 1", got)
	}

	// Negative plan verdict (empty slice) replays as a negative hit.
	if _, _, _, err := rt.PreparedSlice(entry, "A", 99, opts); !errors.Is(err, ErrEmptySlice) {
		t.Fatalf("cold empty slice: %v", err)
	}
	if _, _, hit, err := rt.PreparedSlice(entry, "A", 99, opts); !errors.Is(err, ErrEmptySlice) || !hit {
		t.Fatalf("replayed empty slice: hit=%v err=%v", hit, err)
	}
	if got := sink.count(obs.KindPlan, obs.NegativeHit); got != 1 {
		t.Fatalf("plan negative hits = %d, want 1", got)
	}
	if got := sink.count(obs.KindPlan, obs.Hit); got != 1 {
		t.Fatalf("plan hits after negative replay = %d, want still 1", got)
	}

	// Symbolic kind.
	cp, err := entry.Plan("A")
	if err != nil {
		t.Fatal(err)
	}
	sq := query.SymbolicFromPlan(cp)
	if _, _, hit, err := rt.Symbolic(ctx, entry, sq); err != nil || hit {
		t.Fatalf("cold Symbolic: hit=%v err=%v", hit, err)
	}
	if _, _, hit, err := rt.Symbolic(ctx, entry, sq); err != nil || !hit {
		t.Fatalf("warm Symbolic: hit=%v err=%v", hit, err)
	}
	if got := sink.count(obs.KindSymbolic, obs.Miss); got != 1 {
		t.Fatalf("symbolic misses = %d, want 1", got)
	}
	if got := sink.count(obs.KindSymbolic, obs.Hit); got != 1 {
		t.Fatalf("symbolic hits = %d, want 1", got)
	}

	// Alibi kind.
	if _, hit, err := rt.PreparedAlibi(entry, "A", "B", 0, 10, opts); err != nil || hit {
		t.Fatalf("cold PreparedAlibi: hit=%v err=%v", hit, err)
	}
	if _, hit, err := rt.PreparedAlibi(entry, "A", "B", 0, 10, opts); err != nil || !hit {
		t.Fatalf("warm PreparedAlibi: hit=%v err=%v", hit, err)
	}
	if got := sink.count(obs.KindAlibi, obs.Miss); got != 1 {
		t.Fatalf("alibi misses = %d, want 1", got)
	}
	if got := sink.count(obs.KindAlibi, obs.Hit); got != 1 {
		t.Fatalf("alibi hits = %d, want 1", got)
	}

	// Kinds never bleed into each other: the plan counters are
	// untouched by the symbolic and alibi traffic above.
	if got := sink.count(obs.KindPlan, obs.Miss); got != 2 { // A + empty slice
		t.Fatalf("plan misses after other kinds = %d, want 2", got)
	}

	// Preparation costs landed under the prepared keys.
	_, key, _, err := rt.PreparedFor(entry, "A", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := rt.Costs().Snapshot(key)
	if !ok || snap.Preps != 1 || snap.PrepNanos <= 0 {
		t.Fatalf("prep cost for %q = %+v ok=%v", key, snap, ok)
	}
	ssnap, ok := rt.Costs().Snapshot(SymbolicKey(entry.ID, sq.Key))
	if !ok || ssnap.Evals != 1 {
		t.Fatalf("symbolic cost = %+v ok=%v", ssnap, ok)
	}
}

// TestDrawCostsAndCoalescedNoDoubleCount: a coalesced draw's effort is
// attributed exactly once (by the initiator); the waiter records only
// the coalesced counter.
func TestDrawCostsAndCoalescedNoDoubleCount(t *testing.T) {
	sink := newRecordingSink()
	// One pool worker: a blocker job parks the initiator's draw in the
	// job queue, guaranteeing it is still in flight when the second
	// caller looks it up.
	rt := NewWithSink(Config{PoolSize: 1, CacheSize: 8}, sink)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("motion", motionProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	ps, key, _, err := rt.PreparedFor(entry, "A", "", opts)
	if err != nil {
		t.Fatal(err)
	}

	exec := rt.Executor()
	const n, w, seed = 16, 2, 42

	release := make(chan struct{})
	exec.pool.Submit(func() { <-release })

	type result struct {
		coalesced bool
		err       error
	}
	first := make(chan result, 1)
	go func() {
		_, co, err := exec.SampleManyCtx(context.Background(), key, ps, n, w, seed)
		first <- result{co, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		exec.mu.Lock()
		registered := len(exec.inflight) > 0
		exec.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("initiator never registered its draw")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// While the blocker holds the pool the draw cannot complete, so the
	// second call below is guaranteed to join it. The draw is released
	// shortly after — the waiter's select fires on the closed ready
	// channel whichever order the two events land in.
	time.AfterFunc(100*time.Millisecond, func() { close(release) })
	_, co2, err := exec.SampleManyCtx(context.Background(), key, ps, n, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	r1 := <-first
	if r1.err != nil {
		t.Fatal(r1.err)
	}
	if r1.coalesced || !co2 {
		t.Fatalf("want initiator uncoalesced and second caller coalesced, got %v and %v", r1.coalesced, co2)
	}

	snap, ok := rt.Costs().Snapshot(key)
	if !ok {
		t.Fatalf("no cost recorded under %q", key)
	}
	if snap.Draws != 1 {
		t.Fatalf("Draws = %d, want 1 (coalesced waiter must not double-count)", snap.Draws)
	}
	if snap.Samples != n {
		t.Fatalf("Samples = %d, want %d", snap.Samples, n)
	}
	if snap.Binds != w || snap.BindNanos <= 0 {
		t.Fatalf("Binds = %d (nanos %d), want %d binds", snap.Binds, snap.BindNanos, w)
	}
	if snap.WalkSteps <= 0 || snap.OracleCalls <= 0 {
		t.Fatalf("draw effort missing: %+v", snap)
	}
	if snap.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", snap.Coalesced)
	}
	if sink.coalesced != 1 {
		t.Fatalf("sink coalesced = %d, want 1", sink.coalesced)
	}

	// Per-member attribution: relation A is a single convex tuple, so
	// member 0 carries the whole walk effort.
	msnap, ok := rt.Costs().Snapshot(key + "#0")
	if !ok || msnap.WalkSteps != snap.WalkSteps {
		t.Fatalf("member cost = %+v ok=%v, want walk steps %d", msnap, ok, snap.WalkSteps)
	}
}

// TestSampleBatchSpan: a traced context grows a sample.batch span
// carrying the sampler key and the draw's effort counters.
func TestSampleBatchSpan(t *testing.T) {
	rt := NewWithSink(Config{PoolSize: 2, CacheSize: 8}, nil)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("motion", motionProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	ps, key, _, err := rt.PreparedFor(entry, "A", "", opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, root := obs.NewTrace(context.Background(), "test")
	if _, _, err := rt.Executor().SampleManyCtx(ctx, key, ps, 8, 2, 1); err != nil {
		t.Fatal(err)
	}
	root.End()
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "sample.batch" {
		t.Fatalf("children = %v", kids)
	}
	sp := kids[0]
	if sp.Key() != key {
		t.Fatalf("span key = %q, want %q", sp.Key(), key)
	}
	counters := map[string]int64{}
	for _, c := range sp.Counters() {
		counters[c.Name] = c.Value
	}
	if counters["n"] != 8 || counters["samples"] != 8 {
		t.Fatalf("span counters = %v", counters)
	}
	if counters["walk_steps"] <= 0 || counters["oracle_calls"] <= 0 {
		t.Fatalf("span missing walk effort: %v", counters)
	}
}
