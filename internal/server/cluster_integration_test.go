package server

// In-process cluster integration tests: three real Servers behind three
// httptest listeners, wired into one consistent-hash membership. They
// prove the cluster's load-bearing claims — single ownership of warm
// entries, forwarded warm hits served from the owner's cache, breaker
// fallback under a killed peer, per-tenant shedding — with the same
// handlers a production node runs.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cdb "repro"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

// swappable lets an httptest server start (fixing its URL) before the
// cluster node behind it exists: static membership needs every member's
// URL at construction time, but the URLs only exist once the listeners
// are up.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (sw *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*sw.h.Load()).ServeHTTP(w, r)
}

type testCluster struct {
	nodes []*Server
	urls  []string
	tss   []*httptest.Server
}

// newTestCluster builds n Servers into one membership. mutate can tweak
// each node's Config (breaker tuning, admission) before construction.
// Probing stays off so breaker state is driven by forwarding outcomes
// alone — deterministic under test.
func newTestCluster(t testing.TB, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	handlers := make([]*swappable, n)
	for i := 0; i < n; i++ {
		sw := &swappable{}
		nf := http.NotFoundHandler()
		sw.h.Store(&nf)
		ts := httptest.NewServer(sw)
		handlers[i] = sw
		tc.tss = append(tc.tss, ts)
		tc.urls = append(tc.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range tc.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{Cluster: cluster.Config{Self: tc.urls[i], Peers: peers}}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := New(cfg)
		h := s.Handler()
		handlers[i].h.Store(&h)
		tc.nodes = append(tc.nodes, s)
	}
	t.Cleanup(func() {
		for _, ts := range tc.tss {
			ts.Close()
		}
		for _, s := range tc.nodes {
			s.Close()
		}
	})
	return tc
}

// ownerIndex resolves the node index owning key on the shared ring
// (every node's view agrees; node 0's router answers for all).
func (tc *testCluster) ownerIndex(t testing.TB, key string) int {
	t.Helper()
	owner, local := tc.nodes[0].router.Route(key)
	if local {
		owner = tc.urls[0]
	}
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in membership %v", owner, tc.urls)
	return -1
}

// planKeyOf is the key a name-addressed request for target routes on
// (and its owner caches under): the PlanKey of the canonical plan the
// name resolves to in program src, registered as database id.
func planKeyOf(t testing.TB, id, src, target string, o *OptionsJSON) string {
	t.Helper()
	e, _, err := runtime.NewRegistry(0).Register(id, src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.Plan(target)
	if err != nil {
		t.Fatal(err)
	}
	optsKey, ok := routeOptsKey(o)
	if !ok {
		t.Fatal("routeOptsKey failed")
	}
	return runtime.PlanKey(id, cp.Key, optsKey)
}

// postJSONHeaders is postJSON with request headers (tenant, forwarded
// markers).
func postJSONHeaders(t testing.TB, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, out
}

// clusterTargets is the mixed workload: two declared relations (one a
// union), a quantifier-free named query, an ∃-query served warm from
// its eliminated relation and one past the elimination budget. The
// over-budget query has no cacheable sampler — /v1/sample and
// /v1/volume answer a deterministic 400 and its owner caches the
// negative verdict, which must obey single ownership like any entry.
var clusterTargets = []struct {
	relation, query string
	wantStatus      int
}{
	{relation: "S", wantStatus: http.StatusOK},
	{relation: "B", wantStatus: http.StatusOK},
	{query: "C", wantStatus: http.StatusOK},
	{query: "Q", wantStatus: http.StatusOK},
	{query: "Far", wantStatus: http.StatusBadRequest},
}

// clusterProgram is testProgram plus the over-budget query.
var clusterProgram = testProgram + overBudgetProgram

func TestClusterSingleOwnershipAndWarmForwarding(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	// Registering against one node replicates to the peers, so every
	// node can resolve ids and compile plans for routing.
	register(t, tc.urls[0], "test", clusterProgram)
	for i, s := range tc.nodes {
		if _, ok := s.Registry().Get("test"); !ok {
			t.Fatalf("node %d did not receive the replicated registration", i)
		}
	}

	// Mixed workload: every target × {sample, volume, expr, sql} ×
	// every ingress node, concurrently. /v1/expr shares /v1/sample's
	// options, and a default-options /v1/sample shares /v1/sql's, so one
	// canonical plan is asked for through several surfaces. Wherever a
	// request lands, the preparation must happen on the key's owner and
	// nowhere else.
	var wg sync.WaitGroup
	for _, target := range clusterTargets {
		for i := range tc.nodes {
			wg.Add(1)
			go func(url, relation, q string, want int) {
				defer wg.Done()
				name := relation + q
				for _, opts := range []*OptionsJSON{fastOpts, nil} {
					resp, body := postJSONHeaders(t, url+"/v1/sample",
						sampleRequest{Database: "test", Relation: relation, Query: q, N: 4, Seed: 7, Options: opts}, nil)
					if resp.StatusCode != want {
						t.Errorf("sample %s via %s: status %d, body %s", name, url, resp.StatusCode, body)
					}
				}
				resp, body := postJSONHeaders(t, url+"/v1/volume",
					volumeRequest{Database: "test", Relation: relation, Query: q, Seed: 7, Options: fastOpts}, nil)
				if resp.StatusCode != want {
					t.Errorf("volume %s via %s: status %d, body %s", name, url, resp.StatusCode, body)
				}
				resp, body = postJSONHeaders(t, url+"/v1/expr",
					exprRequest{Database: "test", Expr: rel(name), Mode: "sample", N: 4, Seed: 7, Options: fastOpts}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("expr %s via %s: status %d, body %s", name, url, resp.StatusCode, body)
				}
				if resp, _, body := postSQL(t, url, "test", "SELECT * FROM "+name+" SAMPLE 4 SEED 7"); resp.StatusCode != http.StatusOK {
					t.Errorf("sql %s via %s: status %d, body %s", name, url, resp.StatusCode, body)
				}
			}(tc.urls[i], target.relation, target.query, target.wantStatus)
		}
	}
	wg.Wait()

	// (a) Every canonical key is warm on exactly one node: the per-node
	// prepared-cache key sets are pairwise disjoint, and each target's
	// plan key landed on the node the ring names.
	warm := map[string]int{}
	total := 0
	for i, s := range tc.nodes {
		for _, key := range s.Runtime().Cache().Keys() {
			if prev, dup := warm[key]; dup {
				t.Errorf("key %q warm on nodes %d and %d — ownership is not single", key, prev, i)
			}
			warm[key] = i
			total++
		}
	}
	if total < len(clusterTargets) {
		t.Fatalf("only %d warm entries cluster-wide, want >= %d", total, len(clusterTargets))
	}
	for _, target := range clusterTargets {
		for _, opts := range []*OptionsJSON{fastOpts, nil} {
			key := planKeyOf(t, "test", clusterProgram, target.relation+target.query, opts)
			owner := tc.ownerIndex(t, key)
			// The owner holds the target's entry (its cached verdict, for
			// the over-budget ∃-query).
			if cached, _ := tc.nodes[owner].Runtime().Cache().Peek(key); !cached {
				t.Errorf("target %s%s: owner node %d has no entry under %q", target.relation, target.query, owner, key)
			}
		}
	}

	// The within-budget ∃-query returns the same bytes through every
	// node.
	var qPoints [][]cdb.Vector
	for _, url := range tc.urls {
		resp, body := postJSONHeaders(t, url+"/v1/sample",
			sampleRequest{Database: "test", Query: "Q", N: 4, Seed: 7, Options: fastOpts}, nil)
		var out sampleResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
			t.Fatalf("sample Q via %s: status %d, body %s", url, resp.StatusCode, body)
		}
		qPoints = append(qPoints, out.Points)
	}
	for i, pts := range qPoints {
		if !reflect.DeepEqual(pts, qPoints[0]) {
			t.Errorf("Q points via node %d differ from node 0: %v vs %v", i, pts, qPoints[0])
		}
	}

	// (b) A warm forwarded request is served from the owner's cache: the
	// response crosses back with the owner hint and a cache hit label.
	owner := tc.ownerIndex(t, planKeyOf(t, "test", clusterProgram, "S", fastOpts))
	ingress := (owner + 1) % len(tc.nodes)
	resp, body := postJSONHeaders(t, tc.urls[ingress]+"/v1/sample",
		sampleRequest{Database: "test", Relation: "S", N: 4, Seed: 9, Options: fastOpts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded warm sample: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-CDB-Owner"); got != tc.urls[owner] {
		t.Fatalf("X-CDB-Owner = %q, want %q", got, tc.urls[owner])
	}
	var out sampleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "hit" {
		t.Fatalf("forwarded warm sample cache = %q, want %q", out.Cache, "hit")
	}

	// The clustered node's metrics expose the routing and membership
	// families.
	mresp, err := http.Get(tc.urls[ingress] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"cdbserve_cluster_peers 3", "cdbserve_cluster_route_total", `decision="forward"`, "cdbserve_cluster_breaker_open"} {
		if !bytes.Contains(mbody, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestClusterBreakerFallback(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Cluster.Breaker = cluster.BreakerConfig{Threshold: 1, Cooldown: time.Minute}
	})
	// Single-interval relations are added until the dead node owns at
	// least one of their plan keys — the key /v1/sample routes on — from
	// node 0's vantage point. Distinct upper bounds keep their canonical
	// plans, and so their cache entries, distinct (identical geometry
	// would dedup into one shared plan key).
	dead := 2
	src := ""
	var deadOwned []string
	for i := 0; len(deadOwned) == 0; i++ {
		if i == 64 {
			t.Fatal("ring assigned none of 64 plan keys to the dead node")
		}
		name := "R" + strconv.Itoa(i)
		decl := "rel " + name + "(x) := { x >= 0, x <= " + strconv.Itoa(i+1) + " };\n"
		src += decl
		if tc.ownerIndex(t, planKeyOf(t, "many", decl, name, fastOpts)) == dead {
			deadOwned = append(deadOwned, name)
		}
	}
	register(t, tc.urls[0], "many", src)
	tc.tss[dead].Close() // kill node 2's listener; its Server object survives

	// (c) Requests keep succeeding: the first attempt pays a transport
	// failure, trips the breaker (threshold 1) and computes locally; the
	// second is denied by the open breaker up front and also computes
	// locally.
	for round := 0; round < 2; round++ {
		for _, n := range deadOwned {
			resp, body := postJSONHeaders(t, tc.urls[0]+"/v1/sample",
				sampleRequest{Database: "many", Relation: n, N: 2, Seed: 3, Options: fastOpts}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d relation %s: status %d, body %s", round, n, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-CDB-Owner"); got != "" {
				t.Fatalf("fallback response leaked owner header %q", got)
			}
		}
	}
	if state := tc.nodes[0].health.States()[tc.urls[dead]]; state != "open" {
		t.Fatalf("dead peer breaker = %q, want open", state)
	}
	// The fallback entries are warm locally now — degraded to duplicated
	// work, never to unavailability.
	if keys := tc.nodes[0].Runtime().Cache().Keys(); len(keys) < len(deadOwned) {
		t.Fatalf("node 0 holds %d warm entries after fallback, want >= %d", len(keys), len(deadOwned))
	}
}

func TestClusterTenantQuota429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Admission: cluster.AdmissionConfig{TenantRate: 0.0001, TenantBurst: 2},
	})
	register(t, ts.URL, "test", testProgram)

	req := sampleRequest{Database: "test", Relation: "S", N: 1, Seed: 1, Options: fastOpts}
	alice := map[string]string{"X-CDB-Tenant": "alice"}
	for i := 0; i < 2; i++ {
		resp, body := postJSONHeaders(t, ts.URL+"/v1/sample", req, alice)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alice request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	// (d) Burst exhausted: 429 with a Retry-After the client can obey.
	resp, body := postJSONHeaders(t, ts.URL+"/v1/sample", req, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: status %d, body %s", resp.StatusCode, body)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want >= 1 whole seconds", resp.Header.Get("Retry-After"))
	}
	var e errorResponse
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Fatalf("429 body = %s, want a JSON error", body)
	}

	// Tenants are isolated; peer-forwarded requests skip tenant charging.
	if resp, body := postJSONHeaders(t, ts.URL+"/v1/sample", req, map[string]string{"X-CDB-Tenant": "bob"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob: status %d, body %s", resp.StatusCode, body)
	}
	if resp, body := postJSONHeaders(t, ts.URL+"/v1/sample", req,
		map[string]string{"X-CDB-Tenant": "alice", "X-CDB-Forwarded": "1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request must bypass the tenant bucket: status %d, body %s", resp.StatusCode, body)
	}
}

func TestClusterHealthzReadiness(t *testing.T) {
	// A partitioned node (every breaker open) must turn not-ready so load
	// balancers rotate it out, while still serving (degraded) traffic.
	tc := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.Cluster.Breaker = cluster.BreakerConfig{Threshold: 1, Cooldown: time.Minute}
	})
	register(t, tc.urls[0], "test", testProgram)
	tc.tss[1].Close()

	// Trip the only peer's breaker with a request it owns.
	for _, rel := range []string{"S", "B"} {
		if tc.ownerIndex(t, planKeyOf(t, "test", testProgram, rel, fastOpts)) == 1 {
			resp, _ := postJSONHeaders(t, tc.urls[0]+"/v1/sample",
				sampleRequest{Database: "test", Relation: rel, N: 1, Seed: 1, Options: fastOpts}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fallback status %d", resp.StatusCode)
			}
		}
	}
	if !tc.nodes[0].health.AllOpen() {
		// Both relations hashed to node 0; trip the breaker directly (the
		// unit is exercised above when the ring cooperates).
		tc.nodes[0].health.Breaker(tc.urls[1]).Fail()
	}
	resp, err := http.Get(tc.urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("partitioned healthz status = %d, want 503", resp.StatusCode)
	}
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Ready || h.Status != "degraded" {
		t.Fatalf("healthz = %+v, want ready=false status=degraded", h)
	}
	if h.Cluster == nil || !h.Cluster.Enabled || h.Cluster.OpenBreakers != 1 {
		t.Fatalf("healthz cluster field = %+v, want enabled with 1 open breaker", h.Cluster)
	}

	// Draining flips readiness too — the SIGTERM path's first step.
	tc.nodes[0].BeginDrain()
	resp2, err := http.Get(tc.urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 healthzResponse
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusServiceUnavailable || h2.Status != "draining" || h2.Ready {
		t.Fatalf("draining healthz = %d %+v, want 503 status=draining ready=false", resp2.StatusCode, h2)
	}
}
