package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	nodes := []string{"http://c:1", "http://a:1", "http://b:1"}
	r1 := NewRing(nodes, 64)
	r2 := NewRing([]string{"http://b:1", "http://a:1", "http://c:1", "http://a:1"}, 64)

	if !reflect.DeepEqual(r1.Nodes(), []string{"http://a:1", "http://b:1", "http://c:1"}) {
		t.Fatalf("Nodes() = %v", r1.Nodes())
	}

	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("db\x1fplan\x1fkey-%d\x1fopts", i)
		o1, o2 := r1.Owner(key), r2.Owner(key)
		if o1 != o2 {
			t.Fatalf("rings built from permuted membership disagree on %q: %q vs %q", key, o1, o2)
		}
		counts[o1]++
	}
	for n, c := range counts {
		if c < 300 {
			t.Errorf("node %s owns only %d/3000 keys — ring badly imbalanced", n, c)
		}
	}
}

// TestRingBalanceAcrossPorts: members that differ only by port — every
// loopback or httptest cluster — still split the circle evenly. Over
// 2000 seeded three-member rings the largest member's share of the
// circle must average at most 0.40 (ideal 1/3).
func TestRingBalanceAcrossPorts(t *testing.T) {
	r := rng.New(1)
	const rings = 2000
	sum := 0.0
	for i := 0; i < rings; i++ {
		seen := map[string]bool{}
		for len(seen) < 3 {
			seen[fmt.Sprintf("http://127.0.0.1:%d", 1024+r.Intn(64512))] = true
		}
		var nodes []string
		for n := range seen {
			nodes = append(nodes, n)
		}
		ring := NewRing(nodes, 64)
		// Each point owns the arc from its predecessor up to itself; the
		// uint64 difference wraps for the first point's arc across zero.
		share := map[string]float64{}
		for j, p := range ring.points {
			prev := ring.points[(j+len(ring.points)-1)%len(ring.points)].hash
			share[p.node] += float64(p.hash-prev) / (1 << 64)
		}
		largest := 0.0
		for _, s := range share {
			largest = max(largest, s)
		}
		sum += largest
	}
	if mean := sum / rings; mean > 0.40 {
		t.Fatalf("largest member owns %.3f of the circle on average, want <= 0.40 (ideal 1/3)", mean)
	}
}

func TestRingOwnershipStableUnderGrowth(t *testing.T) {
	small := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 64)
	big := NewRing([]string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}, 64)
	moved := 0
	const total = 4000
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("key-%d", i)
		if small.Owner(key) != big.Owner(key) {
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of the space when a 4th node joins;
	// fail only on gross breakage (e.g. mod-N hashing moves ~3/4).
	if moved > total/2 {
		t.Fatalf("adding one node moved %d/%d keys — not consistent hashing", moved, total)
	}
	if moved == 0 {
		t.Fatal("adding a node moved no keys — new node owns nothing")
	}
}

func TestRingEmptyAndLayout(t *testing.T) {
	if owner := NewRing(nil, 8).Owner("k"); owner != "" {
		t.Fatalf("empty ring owner = %q", owner)
	}
	layout := NewRing([]string{"a", "b"}, 16).Layout()
	if layout["a"] != 16 || layout["b"] != 16 {
		t.Fatalf("layout = %v", layout)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: 20 * time.Millisecond})

	if !b.Allow() {
		t.Fatal("fresh breaker should allow")
	}
	b.Fail()
	if b.State() != BreakerClosed {
		t.Fatalf("one failure below threshold tripped: %v", b.State())
	}
	b.Fail()
	if b.State() != BreakerOpen {
		t.Fatalf("threshold failures did not trip: %v", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker within cooldown allowed a request")
	}

	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	b.Fail() // probe failed: re-open immediately
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe did not re-open: %v", b.State())
	}

	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe did not close: %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
}

func TestHealthAllOpen(t *testing.T) {
	h := NewHealth([]string{"http://a:1", "http://b:1"}, BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	if h.AllOpen() {
		t.Fatal("fresh health reports all-open")
	}
	h.Breaker("http://a:1").Fail()
	if h.AllOpen() || h.OpenCount() != 1 {
		t.Fatalf("one open breaker: AllOpen=%v OpenCount=%d", h.AllOpen(), h.OpenCount())
	}
	h.Breaker("http://b:1").Fail()
	if !h.AllOpen() {
		t.Fatal("both breakers open but AllOpen is false")
	}
	if got := h.States()["http://a:1"]; got != "open" {
		t.Fatalf("States()[a] = %q", got)
	}
	// No peers: never all-open (a single node is never "partitioned").
	if NewHealth(nil, BreakerConfig{}).AllOpen() {
		t.Fatal("empty health reports all-open")
	}
}

func TestGateLeaderAndWaiters(t *testing.T) {
	g := NewGate()
	leader, err := g.Enter(context.Background(), "k")
	if err != nil || !leader {
		t.Fatalf("first Enter: leader=%v err=%v", leader, err)
	}

	const waiters = 8
	var wg sync.WaitGroup
	released := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lead, err := g.Enter(context.Background(), "k")
			released <- lead && err == nil
		}()
	}

	// Waiters must be parked, not leading.
	select {
	case <-released:
		t.Fatal("a waiter proceeded before the leader left")
	case <-time.After(20 * time.Millisecond):
	}

	g.Leave("k")
	wg.Wait()
	close(released)
	for lead := range released {
		if lead {
			t.Fatal("a waiter was admitted as a second leader")
		}
	}

	// The flight is gone: the next Enter leads again.
	if leader, _ := g.Enter(context.Background(), "k"); !leader {
		t.Fatal("Enter after Leave did not lead")
	}
	g.Leave("k")
}

func TestGateWaiterContextCancel(t *testing.T) {
	g := NewGate()
	if leader, _ := g.Enter(context.Background(), "k"); !leader {
		t.Fatal("setup: first Enter did not lead")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Enter(ctx, "k"); err != context.DeadlineExceeded {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	g.Leave("k")
}

func TestAdmissionInFlightBudget(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2})
	rel1, _, err := a.Admit("t", false)
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	rel2, _, err := a.Admit("t", false)
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	if _, retry, err := a.Admit("t", false); err != ErrOverCapacity || retry <= 0 {
		t.Fatalf("over-budget admit: err=%v retry=%v", err, retry)
	}
	// Forwarded requests also count against the budget.
	if _, _, err := a.Admit("t", true); err != ErrOverCapacity {
		t.Fatalf("forwarded over-budget admit: %v", err)
	}
	rel1()
	rel1() // double release is a no-op, not a double decrement
	if got := a.InFlight(); got != 1 {
		t.Fatalf("in-flight after release = %d", got)
	}
	if rel, _, err := a.Admit("t", false); err != nil {
		t.Fatalf("admit after release: %v", err)
	} else {
		rel()
	}
	rel2()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("in-flight after all releases = %d", got)
	}
}

func TestAdmissionTenantQuota(t *testing.T) {
	a := NewAdmission(AdmissionConfig{TenantRate: 0.001, TenantBurst: 2})
	for i := 0; i < 2; i++ {
		rel, _, err := a.Admit("alice", false)
		if err != nil {
			t.Fatalf("alice admit %d: %v", i, err)
		}
		rel()
	}
	_, retry, err := a.Admit("alice", false)
	if err != ErrQuotaExceeded {
		t.Fatalf("alice over quota: %v", err)
	}
	if retry <= 0 {
		t.Fatalf("Retry-After hint = %v", retry)
	}
	// Other tenants have their own buckets.
	if rel, _, err := a.Admit("bob", false); err != nil {
		t.Fatalf("bob admit: %v", err)
	} else {
		rel()
	}
	// Forwarded requests skip the tenant charge entirely.
	if rel, _, err := a.Admit("alice", true); err != nil {
		t.Fatalf("forwarded admit for exhausted tenant: %v", err)
	} else {
		rel()
	}
	qs := a.Quotas()
	if len(qs) != 2 || qs[0].Tenant != "alice" || qs[1].Tenant != "bob" {
		t.Fatalf("Quotas() = %+v", qs)
	}
}

func TestAdmissionZeroConfigAdmitsEverything(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	if a.Config().Enabled() {
		t.Fatal("zero config reports enabled")
	}
	for i := 0; i < 100; i++ {
		rel, _, err := a.Admit("t", false)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rel()
	}
}

func TestAdmissionTenantTableBounded(t *testing.T) {
	a := NewAdmission(AdmissionConfig{TenantRate: 100, TenantBurst: 5, MaxTenants: 4})
	for i := 0; i < 20; i++ {
		rel, _, err := a.Admit(fmt.Sprintf("tenant-%d", i), false)
		if err != nil {
			t.Fatalf("admit tenant-%d: %v", i, err)
		}
		rel()
	}
	if got := len(a.Quotas()); got > 4 {
		t.Fatalf("tenant table grew to %d entries (cap 4)", got)
	}
}

func TestConfigValidateAndParsePeers(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("single-node config invalid: %v", err)
	}
	if err := (Config{Peers: []string{"http://b:1"}}).Validate(); err == nil {
		t.Fatal("missing self accepted")
	}
	if err := (Config{Self: "http://a:1", Peers: []string{"not a url"}}).Validate(); err == nil {
		t.Fatal("relative peer URL accepted")
	}
	if err := (Config{Self: "http://a:1", Peers: []string{"http://a:1"}}).Validate(); err == nil {
		t.Fatal("duplicate member accepted")
	}
	ok := Config{Self: "http://a:1", Peers: []string{"http://b:1", "http://c:1"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := ok.Members(); !reflect.DeepEqual(got, []string{"http://a:1", "http://b:1", "http://c:1"}) {
		t.Fatalf("Members() = %v", got)
	}

	got := ParsePeers(" http://b:1 , ,http://c:1,")
	if !reflect.DeepEqual(got, []string{"http://b:1", "http://c:1"}) {
		t.Fatalf("ParsePeers = %v", got)
	}
	if ParsePeers("") != nil {
		t.Fatal("ParsePeers(\"\") != nil")
	}
}

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(`{"self":"http://a:1","peers":["http://b:1"],"vnodes":16,"max_hops":3}`), 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Self != "http://a:1" || len(c.Peers) != 1 || c.VNodes != 16 || c.MaxHops != 3 {
		t.Fatalf("LoadConfig = %+v", c)
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRouterLocalAndRing(t *testing.T) {
	var l Router = Local{}
	if owner, local := l.Route("k"); owner != "" || !local {
		t.Fatalf("Local.Route = (%q, %v)", owner, local)
	}
	if NewRouter(Config{}) != (Local{}) {
		t.Fatal("NewRouter without peers is not Local")
	}

	cfg := Config{Self: "http://a:1", Peers: []string{"http://b:1", "http://c:1"}}
	r := NewRouter(cfg)
	if r.Self() != "http://a:1" || len(r.Nodes()) != 3 {
		t.Fatalf("ring router identity: self=%q nodes=%v", r.Self(), r.Nodes())
	}
	sawLocal, sawRemote := false, false
	for i := 0; i < 200; i++ {
		owner, local := r.Route(fmt.Sprintf("key-%d", i))
		if owner == "" {
			t.Fatal("ring router returned empty owner")
		}
		if local != (owner == "http://a:1") {
			t.Fatalf("local flag disagrees with owner %q", owner)
		}
		if local {
			sawLocal = true
		} else {
			sawRemote = true
		}
	}
	if !sawLocal || !sawRemote {
		t.Fatalf("degenerate routing: local=%v remote=%v", sawLocal, sawRemote)
	}
	if _, ok := RingOf(r); !ok {
		t.Fatal("RingOf(ring router) not ok")
	}
	if _, ok := RingOf(Local{}); ok {
		t.Fatal("RingOf(Local) ok")
	}
}

func TestKeySet(t *testing.T) {
	s := NewKeySet(2)
	s.Add("a")
	s.Add("b")
	if !s.Has("a") || !s.Has("b") {
		t.Fatal("fresh keys missing")
	}
	s.Add("a") // re-add is a no-op, not a duplicate order entry
	s.Add("c") // evicts "a" (oldest)
	if s.Has("a") {
		t.Fatal("oldest key survived eviction")
	}
	if !s.Has("b") || !s.Has("c") {
		t.Fatal("newer keys evicted")
	}
}
