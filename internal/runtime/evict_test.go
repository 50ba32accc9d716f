package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/query"
)

// TestPlanEvictionFreesAuditAndQuality: the plan cache's capacity bounds
// the memory kept beside it. Once a plan is evicted, the auditor drops
// its registration (and with it the *Prepared and the derived relation)
// and the quality tracker drops its accumulators, so nothing keeps the
// evicted geometry reachable.
func TestPlanEvictionFreesAuditAndQuality(t *testing.T) {
	const capacity, keys = 4, 40
	rt := NewWithSink(Config{PoolSize: 2, CacheSize: capacity}, nil)
	t.Cleanup(rt.Close)
	var src strings.Builder
	for i := 0; i < keys; i++ {
		// Distinct boxes: one canonical plan, one cache key each, all in
		// the audit fragment (2-D, one tuple, bounded).
		fmt.Fprintf(&src, "rel R%d(x, y) := { 0 <= x <= %d, 0 <= y <= 1 };\n", i, i+1)
	}
	entry, _, err := rt.Registry().Register("evict", src.String())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var first weak.Pointer[Prepared]
	for i := 0; i < keys; i++ {
		cp, err := entry.Plan(fmt.Sprintf("R%d", i))
		if err != nil {
			t.Fatal(err)
		}
		x, err := rt.Exec(entry, cp, testOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := x.SampleN(ctx, 8, 1, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ps, _ := x.Sampler()
			first = weak.Make(ps)
		}
	}
	if n := rt.Auditor().Stats().Entries; n > capacity {
		t.Errorf("auditor holds %d entries after %d plans, want <= %d", n, keys, capacity)
	}
	if n := len(rt.Quality().Keys()); n > capacity {
		t.Errorf("quality tracker holds %d keys after %d plans, want <= %d", n, keys, capacity)
	}
	goruntime.GC()
	if first.Value() != nil {
		t.Error("the first, evicted *Prepared is still reachable after GC")
	}
}

// TestEvictionForgetsCosts: the observed-cost table holds cells only for
// resident cache entries. With CacheSize 4, forty distinct two-disjunct
// plans are sampled and measured and their symbolic plans eliminated,
// and forty ∃ plans over them are served from their elimination, whose
// effort lands under their plan keys; afterwards every cost cell names
// a resident plan or symbolic key, or a "key#i" member of a resident
// plan.
func TestEvictionForgetsCosts(t *testing.T) {
	const capacity, keys = 4, 40
	rt := NewWithSink(Config{PoolSize: 2, CacheSize: capacity}, nil)
	t.Cleanup(rt.Close)
	var src strings.Builder
	for i := 0; i < keys; i++ {
		fmt.Fprintf(&src, "rel R%d(x, y) := { 0 <= x <= %d, 0 <= y <= 1 } | { 0 <= x <= 1, 0 <= y <= %d };\n", i, i+2, i+2)
		fmt.Fprintf(&src, "query Q%d(y) := exists x. R%d(x, y);\n", i, i)
	}
	entry, _, err := rt.Registry().Register("costs", src.String())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < keys; i++ {
		cp, err := entry.Plan(fmt.Sprintf("R%d", i))
		if err != nil {
			t.Fatal(err)
		}
		x, err := rt.Exec(entry, cp, testOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := x.SampleN(ctx, 8, 1, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Volume(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rt.Symbolic(ctx, entry, query.SymbolicFromPlan(cp)); err != nil {
			t.Fatal(err)
		}
		if cp, err = entry.Plan(fmt.Sprintf("Q%d", i)); err != nil {
			t.Fatal(err)
		}
		if x, err = rt.Exec(entry, cp, testOptions(), nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := x.SampleN(ctx, 8, 1, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	resident := map[string]bool{}
	for _, k := range append(rt.Cache().Keys(), rt.SymbolicCache().Keys()...) {
		resident[k] = true
	}
	members := 0
	for _, c := range rt.Costs().Each() {
		if resident[c.Key] {
			continue
		}
		if i := strings.LastIndexByte(c.Key, '#'); i >= 0 && resident[c.Key[:i]] {
			members++
			continue
		}
		t.Errorf("cost cell %q outlived its cache entry", c.Key)
	}
	if members == 0 {
		t.Error("no per-disjunct cost cell recorded: the test no longer exercises key#i")
	}
}
