package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.Add("x", 1)
	s.Set("y", 2)
	s.SetKey("k")
	s.End()
	if got := s.StartChild("c"); got != nil {
		t.Fatalf("StartChild on nil = %v, want nil", got)
	}
	if s.Name() != "" || s.Key() != "" || s.TraceID() != "" {
		t.Fatalf("nil span accessors should return zero values")
	}
	if s.Duration() != 0 || s.String() != "" || s.Counters() != nil || s.Children() != nil {
		t.Fatalf("nil span accessors should return zero values")
	}
	s.Walk(func(*Span, int) { t.Fatal("walk visited a nil span") })
	if s.StageNanos() != nil {
		t.Fatalf("StageNanos on nil should be nil")
	}
}

func TestStartWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := Start(ctx, "stage")
	if s != nil {
		t.Fatalf("Start without a trace returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a trace should return ctx unchanged")
	}
	if Enabled(ctx) {
		t.Fatalf("Enabled on a bare context")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("FromContext on a bare context")
	}
}

func TestTraceTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "query")
	if root == nil || root.TraceID() == "" {
		t.Fatalf("NewTrace must return a root with a trace ID")
	}
	if !Enabled(ctx) || FromContext(ctx) != root {
		t.Fatalf("context does not carry the root span")
	}

	cctx, child := Start(ctx, "prepare")
	if child == nil {
		t.Fatalf("Start under a trace returned nil")
	}
	child.SetKey("cdb1|plan|abc")
	child.Add("walk_steps", 100)
	child.Add("walk_steps", 28)
	child.Set("n", 64)
	child.End()
	d1 := child.Duration()
	time.Sleep(time.Millisecond)
	if child.Duration() != d1 {
		t.Fatalf("End did not freeze the duration")
	}

	_, g := Start(cctx, "bind")
	g.End()
	root.End()

	kids := root.Children()
	if len(kids) != 1 || kids[0] != child {
		t.Fatalf("root children = %v", kids)
	}
	if gk := child.Children(); len(gk) != 1 || gk[0].Name() != "bind" {
		t.Fatalf("child children = %v", gk)
	}

	counts := child.Counters()
	if len(counts) != 2 || counts[0].Name != "walk_steps" || counts[0].Value != 128 ||
		counts[1].Name != "n" || counts[1].Value != 64 {
		t.Fatalf("counters = %v", counts)
	}

	out := root.String()
	for _, want := range []string{"query ", "trace=" + root.TraceID(), "  prepare ", "key=cdb1|plan|abc", "walk_steps=128", "    bind "} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q, missing %q", out, want)
		}
	}

	var names []string
	var depths []int
	root.Walk(func(s *Span, d int) { names = append(names, s.Name()); depths = append(depths, d) })
	if len(names) != 3 || names[0] != "query" || names[1] != "prepare" || names[2] != "bind" {
		t.Fatalf("walk order = %v", names)
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 {
		t.Fatalf("walk depths = %v", depths)
	}

	stages := root.StageNanos()
	if len(stages) != 3 {
		t.Fatalf("StageNanos = %v", stages)
	}
	for _, c := range stages {
		if c.Value < 0 {
			t.Fatalf("negative stage time %v", c)
		}
	}
}

func TestSpanConcurrency(t *testing.T) {
	_, root := NewTrace(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.StartChild("w")
				c.Add("steps", 1)
				c.End()
				root.Add("total", 1)
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
	counts := root.Counters()
	if len(counts) != 1 || counts[0].Value != 800 {
		t.Fatalf("counters = %v", counts)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestKindAndOutcomeLabels(t *testing.T) {
	if KindPlan.String() != "plan" || KindSymbolic.String() != "symbolic" || KindAlibi.String() != "alibi" {
		t.Fatalf("kind labels wrong")
	}
	if Hit.String() != "hit" || NegativeHit.String() != "negative_hit" || Miss.String() != "miss" || Eviction.String() != "eviction" {
		t.Fatalf("outcome labels wrong")
	}
}

func TestCostsTable(t *testing.T) {
	tab := NewCosts(2)
	a := tab.For("a")
	a.Preps.Add(1)
	a.PrepNanos.Add(1000)
	a.WalkSteps.Add(512)
	if again := tab.For("a"); again != a {
		t.Fatalf("For must return the same cell")
	}
	b := tab.For("b")
	b.Draws.Add(3)

	// Table is at capacity: further keys share the overflow cell.
	c := tab.For("c")
	d := tab.For("d")
	if c != d {
		t.Fatalf("overflow keys must share one cell")
	}
	c.Samples.Add(7)

	snap, ok := tab.Snapshot("a")
	if !ok || snap.Preps != 1 || snap.PrepNanos != 1000 || snap.WalkSteps != 512 || snap.Key != "a" {
		t.Fatalf("snapshot a = %+v ok=%v", snap, ok)
	}
	if _, ok := tab.Snapshot("zzz"); ok {
		t.Fatalf("snapshot of unknown key reported ok")
	}
	if snap.IsZero() {
		t.Fatalf("non-empty snapshot reported zero")
	}
	if !(CostSnapshot{Key: "k"}).IsZero() {
		t.Fatalf("empty snapshot not zero")
	}

	all := tab.Each()
	if len(all) != 3 { // a, b, <overflow>
		t.Fatalf("Each = %v", all)
	}
	if all[0].Key != overflowKey {
		t.Fatalf("sorted dump should lead with %q, got %q", overflowKey, all[0].Key)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

// TestCostsForget: Forget drops a key's cell and its "key#i" member
// cells, and nothing else.
func TestCostsForget(t *testing.T) {
	tab := NewCosts(16)
	for _, k := range []string{"k", "k#0", "k#12", "k#x", "k#", "k2", "k2#0", "j#0"} {
		tab.For(k).Draws.Add(1)
	}
	tab.Forget("k")
	var left []string
	for _, c := range tab.Each() {
		left = append(left, c.Key)
	}
	if got, want := strings.Join(left, " "), "j#0 k# k#x k2 k2#0"; got != want {
		t.Fatalf("after Forget(k): %s, want %s", got, want)
	}
	tab.Forget("absent")
	var nilTab *Costs
	nilTab.Forget("k")
}

func TestCostsNilSafety(t *testing.T) {
	var tab *Costs
	cell := tab.For("x")
	if cell == nil {
		t.Fatalf("nil table must hand back a throwaway cell")
	}
	cell.Preps.Add(1)
	if _, ok := tab.Snapshot("x"); ok {
		t.Fatalf("nil table should report nothing")
	}
	if tab.Each() != nil || tab.Len() != 0 {
		t.Fatalf("nil table accessors should return zero values")
	}
}

func TestCostsConcurrency(t *testing.T) {
	tab := NewCosts(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tab.For("shared").WalkSteps.Add(1)
			}
		}()
	}
	wg.Wait()
	snap, _ := tab.Snapshot("shared")
	if snap.WalkSteps != 1600 {
		t.Fatalf("WalkSteps = %d, want 1600", snap.WalkSteps)
	}
}

func TestNopSink(t *testing.T) {
	var s Sink = NopSink{}
	s.CacheEvent(KindPlan, Hit)
	s.CoalescedDraw()
	s.BatchJob()
}
