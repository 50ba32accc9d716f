package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/runtime"
)

const testProgram = `
rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };
rel B(x, y) := { x >= 0, x <= 1, y >= 0, y <= 1 } | { x >= 2, x <= 3, y >= 0, y <= 1 };
query Q(x) := exists y. S(x, y);
query C(x, y) := S(x, y) & x <= 1/2;
`

// fastOpts keeps volume passes short so the suite stays quick.
var fastOpts = &OptionsJSON{MaxPhaseSamples: 200}

// overBudgetProgram declares Ball, 40 planes tangent to the unit ball,
// and Far := ∃z Ball: eliminating z predicts 20 × 20 = 400 atoms, past
// the runtime's elimination budget, so Far runs on Algorithm 2's
// per-call engine while testProgram's Q is served warm.
var overBudgetProgram = "\n" + constraint.MustRelation("Ball", []string{"x", "y", "z"},
	dataset.TangentBall(40).Tuple()).Source() + "\nquery Far(x, y) := exists z. Ball(x, y, z);\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
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

func register(t testing.TB, baseURL, name, source string) string {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/databases", registerRequest{Name: name, Source: source})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, body %s", resp.StatusCode, body)
	}
	var out databaseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode register response: %v", err)
	}
	return out.ID
}

// planEvents reads the cdbserve_cache_events_total{kind="plan"} counter
// of one outcome.
func planEvents(m *Metrics, outcome obs.CacheOutcome) int64 {
	return m.counter(m.cacheEvents, obs.KindPlan.String()+"|"+outcome.String()).Load()
}

func inSimplex(p cdb.Vector) bool {
	return len(p) == 2 && p[0] >= 0 && p[1] >= 0 && p[0]+p[1] <= 1+1e-9
}

func TestRegisterListGet(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	id := register(t, ts.URL, "test", testProgram)
	if id != "test" {
		t.Fatalf("id = %q, want %q", id, "test")
	}

	// Idempotent re-registration of identical source.
	resp, body := postJSON(t, ts.URL+"/v1/databases", registerRequest{Name: "test", Source: testProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: status %d, body %s", resp.StatusCode, body)
	}

	// Conflicting source under the same name.
	resp, _ = postJSON(t, ts.URL+"/v1/databases", registerRequest{Name: "test", Source: `rel T(x) := { x >= 0, x <= 1 };`})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflict: status %d, want 409", resp.StatusCode)
	}

	// Anonymous registration gets a content-hash id.
	resp, body = postJSON(t, ts.URL+"/v1/databases", registerRequest{Source: `rel T(x) := { x >= 0, x <= 1 };`})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("anonymous register: status %d, body %s", resp.StatusCode, body)
	}
	var anon databaseResponse
	json.Unmarshal(body, &anon)
	if !strings.HasPrefix(anon.ID, "db-") {
		t.Fatalf("anonymous id = %q, want db-<hash>", anon.ID)
	}

	// Listing returns both.
	listResp, err := http.Get(ts.URL + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Databases []databaseResponse `json:"databases"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Databases) != 2 {
		t.Fatalf("listed %d databases, want 2", len(list.Databases))
	}
	if got := list.Databases[0]; got.ID != "test" || len(got.Relations) != 2 || len(got.Queries) != 2 {
		t.Fatalf("unexpected first entry: %+v", got)
	}

	// Get by id includes the source; unknown id is 404.
	getResp, err := http.Get(ts.URL + "/v1/databases/test")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Source string `json:"source"`
	}
	json.NewDecoder(getResp.Body).Decode(&detail)
	getResp.Body.Close()
	if detail.Source != testProgram {
		t.Fatalf("detail source mismatch")
	}
	missing, err := http.Get(ts.URL + "/v1/databases/nope")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing db: status %d, want 404", missing.StatusCode)
	}
}

func TestSampleEndpointDeterministicAndCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "test", testProgram)

	req := sampleRequest{Database: "test", Relation: "S", N: 50, Seed: 42, Options: fastOpts}
	resp, body := postJSON(t, ts.URL+"/v1/sample", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
	}
	var first sampleResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", first.Cache)
	}
	if len(first.Points) != 50 {
		t.Fatalf("got %d points, want 50", len(first.Points))
	}
	for i, p := range first.Points {
		if !inSimplex(p) {
			t.Fatalf("point %d = %v outside S", i, p)
		}
	}

	// Same request again: warm cache, identical points (per-seed
	// determinism survives the prepared-sampler reuse).
	_, body2 := postJSON(t, ts.URL+"/v1/sample", req)
	var second sampleResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", second.Cache)
	}
	if !reflect.DeepEqual(first.Points, second.Points) {
		t.Fatal("same seed returned different points across cold/warm requests")
	}

	// A different seed gives a different stream.
	req.Seed = 43
	_, body3 := postJSON(t, ts.URL+"/v1/sample", req)
	var third sampleResponse
	json.Unmarshal(body3, &third)
	if reflect.DeepEqual(first.Points, third.Points) {
		t.Fatal("different seeds returned identical points")
	}
}

func TestSampleStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "test", testProgram)

	req := sampleRequest{Database: "test", Relation: "S", N: 20, Seed: 7, Options: fastOpts, Stream: true}
	resp, body := postJSON(t, ts.URL+"/v1/sample", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	if !sc.Scan() {
		t.Fatal("missing meta line")
	}
	var meta sampleResponse
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	if meta.N != 20 || meta.Points != nil {
		t.Fatalf("unexpected meta: %+v", meta)
	}
	lines := 0
	for sc.Scan() {
		var p cdb.Vector
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("point line %d: %v", lines, err)
		}
		if !inSimplex(p) {
			t.Fatalf("streamed point %v outside S", p)
		}
		lines++
	}
	if lines != 20 {
		t.Fatalf("streamed %d points, want 20", lines)
	}

	// The streamed points match the non-streamed response for the same
	// request parameters.
	req.Stream = false
	_, plain := postJSON(t, ts.URL+"/v1/sample", req)
	var flat sampleResponse
	json.Unmarshal(plain, &flat)
	sc2 := bufio.NewScanner(bytes.NewReader(body))
	sc2.Scan() // skip meta
	for i := 0; sc2.Scan(); i++ {
		var p cdb.Vector
		json.Unmarshal(sc2.Bytes(), &p)
		if !reflect.DeepEqual(p, flat.Points[i]) {
			t.Fatalf("stream/plain mismatch at %d: %v vs %v", i, p, flat.Points[i])
		}
	}
}

func TestVolumeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "test", testProgram)

	req := volumeRequest{Database: "test", Relation: "S", Seed: 42, Options: fastOpts}
	resp, body := postJSON(t, ts.URL+"/v1/volume", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("volume: status %d, body %s", resp.StatusCode, body)
	}
	var out volumeResponse
	json.Unmarshal(body, &out)
	if out.Method != "prepared" {
		t.Fatalf("method = %q, want prepared", out.Method)
	}
	if math.Abs(out.Volume-0.5) > 0.2 {
		t.Fatalf("area(S) estimate %g too far from 0.5", out.Volume)
	}

	// Repeat is warm and returns the identical prepared estimate.
	_, body2 := postJSON(t, ts.URL+"/v1/volume", req)
	var again volumeResponse
	json.Unmarshal(body2, &again)
	if again.Cache != "hit" || again.Volume != out.Volume {
		t.Fatalf("warm volume = %+v, want cache hit with identical estimate %g", again, out.Volume)
	}

	// Median amplification across the 2-tuple relation B (area 2).
	med := volumeRequest{Database: "test", Relation: "B", Seed: 1, MedianK: 3, Options: fastOpts}
	resp, body = postJSON(t, ts.URL+"/v1/volume", med)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("median volume: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if out.Method != "median" {
		t.Fatalf("method = %q, want median", out.Method)
	}
	if math.Abs(out.Volume-2) > 0.7 {
		t.Fatalf("area(B) estimate %g too far from 2", out.Volume)
	}
}

func TestQueryEndpointModes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "test", testProgram)

	// plan: the ∃ query maps onto the projection generator.
	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Database: "test", Query: "Q", Mode: "plan", Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d, body %s", resp.StatusCode, body)
	}
	var out queryResponse
	json.Unmarshal(body, &out)
	if !strings.Contains(out.Plan, "projection generator") {
		t.Fatalf("plan missing projection generator: %q", out.Plan)
	}

	// volume: Q(x) = ∃y S(x,y) is the interval [0,1].
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Database: "test", Query: "Q", Mode: "volume", Seed: 42, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query volume: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if out.Volume == nil || math.Abs(*out.Volume-1) > 0.4 {
		t.Fatalf("vol(Q) = %v, want ≈ 1", out.Volume)
	}

	// sample: 1-dimensional points in [0,1].
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Database: "test", Query: "Q", Mode: "sample", N: 30, Seed: 5, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query sample: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if len(out.Points) != 30 {
		t.Fatalf("got %d points, want 30", len(out.Points))
	}
	for _, p := range out.Points {
		if len(p) != 1 || p[0] < -1e-9 || p[0] > 1+1e-9 {
			t.Fatalf("query sample %v outside [0,1]", p)
		}
	}

	// symbolic: Fourier–Motzkin elimination returns a program fragment.
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Database: "test", Query: "Q", Mode: "symbolic"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if !strings.Contains(out.Source, "Q") {
		t.Fatalf("symbolic source = %q", out.Source)
	}

	// reconstruct: hulls over the query's set.
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Database: "test", Query: "C", Mode: "reconstruct", N: 60, Seed: 9, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query reconstruct: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if len(out.Hulls) == 0 || len(out.Hulls[0].Vertices) == 0 {
		t.Fatalf("reconstruct returned no hulls: %+v", out)
	}

	// Unknown mode is a 400.
	resp, _ = postJSON(t, ts.URL+"/v1/query", queryRequest{Database: "test", Query: "Q", Mode: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", resp.StatusCode)
	}
}

func TestQuantifierFreeQueryUsesPreparedCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := testProgram + overBudgetProgram
	register(t, ts.URL, "test", src)

	// C(x,y) = S ∧ x ≤ 1/2 is quantifier-free, so /v1/sample serves it
	// through the prepared-sampler cache like a relation.
	req := sampleRequest{Database: "test", Query: "C", N: 40, Seed: 3, Options: fastOpts}
	resp, body := postJSON(t, ts.URL+"/v1/sample", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample query: status %d, body %s", resp.StatusCode, body)
	}
	var out sampleResponse
	json.Unmarshal(body, &out)
	for _, p := range out.Points {
		if !inSimplex(p) || p[0] > 0.5+1e-9 {
			t.Fatalf("point %v violates C", p)
		}
	}
	if s.rt.Cache().Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.rt.Cache().Len())
	}

	// An ∃ query past the elimination budget is rejected from the cached
	// sample path with guidance.
	resp, body = postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "test", Query: "Far", N: 5, Seed: 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget ∃ query via /v1/sample: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "/v1/query") {
		t.Fatalf("error should point at /v1/query: %s", body)
	}

	// One within the budget is prepared from its eliminated relation
	// under its plan key.
	resp, body = postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "test", Query: "Q", N: 40, Seed: 3, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("∃ query via /v1/sample: status %d, body %s", resp.StatusCode, body)
	}
	out = sampleResponse{}
	json.Unmarshal(body, &out)
	key := planKeyOf(t, "test", src, "Q", fastOpts)
	if cached, negative := s.rt.Cache().Peek(key); !cached || negative {
		t.Fatalf("∃ query left cached=%v negative=%v under its plan key %q, want a warm entry", cached, negative, key)
	}
	db, err := cdb.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exact, err := db.Rel("Q").EvalSymbolic(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Points {
		if !exact.Contains(p) {
			t.Fatalf("∃ point %v outside the eliminated relation %v", p, exact)
		}
	}

	// Median amplification runs its cold estimators over the same
	// eliminated relation.
	resp, body = postJSON(t, ts.URL+"/v1/volume", volumeRequest{Database: "test", Query: "Q", MedianK: 3, Seed: 3, Options: fastOpts})
	var vout volumeResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &vout) != nil {
		t.Fatalf("∃ query via /v1/volume median_k=3: status %d, body %s", resp.StatusCode, body)
	}
	if vout.Method != "median" || math.Abs(vout.Volume-1) > 0.5 {
		t.Fatalf("∃ query median volume %v (%s), want ≈ 1", vout.Volume, vout.Method)
	}
}

func TestReconstructEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "test", testProgram)

	resp, body := postJSON(t, ts.URL+"/v1/reconstruct", reconstructRequest{Database: "test", Relation: "S", N: 120, Seed: 11, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconstruct: status %d, body %s", resp.StatusCode, body)
	}
	var out reconstructResponse
	json.Unmarshal(body, &out)
	if out.Dim != 2 || len(out.Hulls) != 1 || out.VertexCount < 3 {
		t.Fatalf("unexpected reconstruction: %+v", out)
	}
	for _, v := range out.Hulls[0].Vertices {
		if !inSimplex(v) {
			t.Fatalf("hull vertex %v outside S", v)
		}
	}

	// A multi-tuple relation yields one hull per convex piece — a single
	// hull would claim the gap between B's two boxes.
	resp, body = postJSON(t, ts.URL+"/v1/reconstruct", reconstructRequest{Database: "test", Relation: "B", N: 80, Seed: 11, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconstruct B: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if len(out.Hulls) != 2 {
		t.Fatalf("B reconstructed into %d hulls, want 2", len(out.Hulls))
	}
	for _, h := range out.Hulls {
		for _, v := range h.Vertices {
			if v[0] > 1+1e-9 && v[0] < 2-1e-9 {
				t.Fatalf("hull vertex %v lies in the gap between B's boxes", v)
			}
		}
	}

	// The ∃ query routes through Algorithm 5.
	resp, body = postJSON(t, ts.URL+"/v1/reconstruct", reconstructRequest{Database: "test", Query: "Q", N: 60, Seed: 11, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconstruct query: status %d, body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &out)
	if out.Dim != 1 || len(out.Hulls) == 0 {
		t.Fatalf("unexpected query reconstruction: %+v", out)
	}
	// The 1D projection Q ⊆ [0,1] must yield real interval endpoints
	// (grid-point duplicates once hid every extreme vertex).
	if out.VertexCount < 2 {
		t.Fatalf("1D reconstruction has %d vertices, want >= 2: %+v", out.VertexCount, out.Hulls)
	}
}

func TestSamplerCacheSingleflightSharing(t *testing.T) {
	// 100 parallel requests for the same key must produce exactly one
	// build, and every caller must receive the one shared sampler.
	cache := runtime.NewKindCache[*cdb.PreparedSampler](8, obs.KindPlan, NewMetrics())
	rel := cdb.MustRelation("S", []string{"x", "y"}, cdb.Simplex(2, 1))
	var builds atomic.Int64
	build := func() (*cdb.PreparedSampler, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return cdb.PrepareSampler(rel, 1, cdb.DefaultOptions())
	}

	const clients = 100
	results := make([]*cdb.PreparedSampler, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps, _, err := cache.Get("shared-key", build)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = ps
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, ps := range results {
		if ps != results[0] {
			t.Fatalf("client %d received a different sampler instance", i)
		}
	}
}

func TestSamplerCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	cache := runtime.NewKindCache[*cdb.PreparedSampler](1, obs.KindPlan, m)
	rel := cdb.MustRelation("S", []string{"x", "y"}, cdb.Simplex(2, 1))
	build := func() (*cdb.PreparedSampler, error) {
		return cdb.PrepareSampler(rel, 1, cdb.DefaultOptions())
	}
	if _, hit, err := cache.Get("a", build); err != nil || hit {
		t.Fatalf("first a: hit=%v err=%v", hit, err)
	}
	if _, hit, err := cache.Get("b", build); err != nil || hit {
		t.Fatalf("first b: hit=%v err=%v", hit, err)
	}
	if _, hit, err := cache.Get("a", build); err != nil || hit {
		t.Fatalf("a after eviction: hit=%v err=%v (want rebuilt miss)", hit, err)
	}
	if ev := planEvents(m, obs.Eviction); ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", cache.Len())
	}
}

func TestSamplerCacheFailedBuildNotCached(t *testing.T) {
	cache := runtime.NewKindCache[*cdb.PreparedSampler](4, obs.KindPlan, nil)
	calls := 0
	failing := func() (*cdb.PreparedSampler, error) {
		calls++
		return nil, fmt.Errorf("boom %d", calls)
	}
	if _, _, err := cache.Get("k", failing); err == nil {
		t.Fatal("want error")
	}
	if _, _, err := cache.Get("k", failing); err == nil || !strings.Contains(err.Error(), "boom 2") {
		t.Fatalf("second call should retry the build, got %v", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("failed builds must not stay cached, len = %d", cache.Len())
	}
}

func TestConcurrentBatchedSampling(t *testing.T) {
	// The acceptance scenario: ≥ 8 concurrent clients drawing ≥ 10,000
	// points total through the batch executor, raced, with per-seed
	// determinism across clients.
	s, ts := newTestServer(t, Config{PoolSize: 4})
	register(t, ts.URL, "test", testProgram)

	const clients = 8
	const perClient = 1250
	type result struct {
		points []cdb.Vector
		err    error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Clients 0 and 1 send byte-identical requests (coalescing
			// candidates); the rest use distinct seeds.
			seed := uint64(100 + i)
			if i == 1 {
				seed = 100
			}
			buf, _ := json.Marshal(sampleRequest{Database: "test", Relation: "B", N: perClient, Seed: seed, Workers: 4, Options: fastOpts})
			resp, err := http.Post(ts.URL+"/v1/sample", "application/json", bytes.NewReader(buf))
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			var out sampleResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				results[i].err = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results[i].points = out.Points
		}(i)
	}
	wg.Wait()

	total := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if len(r.points) != perClient {
			t.Fatalf("client %d got %d points, want %d", i, len(r.points), perClient)
		}
		total += len(r.points)
		for _, p := range r.points {
			inB := len(p) == 2 && p[1] >= -1e-9 && p[1] <= 1+1e-9 &&
				((p[0] >= -1e-9 && p[0] <= 1+1e-9) || (p[0] >= 2-1e-9 && p[0] <= 3+1e-9))
			if !inB {
				t.Fatalf("client %d: point %v outside B", i, p)
			}
		}
	}
	if total < 10000 {
		t.Fatalf("drew %d points total, want >= 10000", total)
	}
	// Identical requests get identical results whether or not the
	// executor coalesced them.
	if !reflect.DeepEqual(results[0].points, results[1].points) {
		t.Fatal("clients 0 and 1 sent identical requests but got different points")
	}
	if reflect.DeepEqual(results[0].points, results[2].points) {
		t.Fatal("distinct seeds returned identical streams")
	}
	if jobs := s.metrics.BatchJobs.Load(); jobs < clients {
		t.Fatalf("batch jobs = %d, want >= %d (pool should carry every request)", jobs, clients)
	}
}

func TestColdVersusWarmCacheSpeedup(t *testing.T) {
	// The prepared-sampler cache must make warm requests substantially
	// cheaper than the cold request that pays rounding + volume setup.
	_, ts := newTestServer(t, Config{})
	// A 5-dimensional 3-tuple union makes the preparation genuinely
	// expensive relative to drawing a handful of warm samples.
	src := `rel H(a, b, c, d, e) :=
  { a >= 0, a <= 1, b >= 0, b <= 1, c >= 0, c <= 1, d >= 0, d <= 1, e >= 0, e <= 1 }
| { a >= 1, a <= 2, b >= 0, b <= 1, c >= 0, c <= 1, d >= 0, d <= 1, e >= 0, e <= 1 }
| { a >= 2, a <= 3, b >= 0, b <= 1, c >= 0, c <= 1, d >= 0, d <= 1, e >= 0, e <= 1 };`
	register(t, ts.URL, "hd", src)

	req := sampleRequest{Database: "hd", Relation: "H", N: 8, Seed: 42}
	timeOnce := func() (time.Duration, sampleResponse) {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/sample", req)
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
		}
		var out sampleResponse
		json.Unmarshal(body, &out)
		return elapsed, out
	}

	cold, coldOut := timeOnce()
	if coldOut.Cache != "miss" {
		t.Fatalf("first request cache = %q", coldOut.Cache)
	}
	warm := time.Duration(math.MaxInt64)
	var warmOut sampleResponse
	for i := 0; i < 3; i++ { // best of three to damp scheduler noise
		w, out := timeOnce()
		if out.Cache != "hit" {
			t.Fatalf("warm request %d cache = %q", i, out.Cache)
		}
		if w < warm {
			warm = w
			warmOut = out
		}
	}
	if !reflect.DeepEqual(coldOut.Points, warmOut.Points) {
		t.Fatal("cold and warm responses disagree for the same seed")
	}
	if warm*2 > cold {
		t.Fatalf("no cache win: cold=%v warm=%v (want warm ≤ cold/2)", cold, warm)
	}
	t.Logf("cold=%v warm=%v speedup=%.1fx", cold, warm, float64(cold)/float64(warm))
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "test", testProgram)
	postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "test", Relation: "S", N: 5, Seed: 1, Options: fastOpts})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`cdbserve_requests_total{endpoint="sample"} 1`,
		`cdbserve_requests_total{endpoint="databases"} 1`,
		`cdbserve_cache_events_total{kind="plan",outcome="miss"} 1`,
		"cdbserve_samples_served_total 5",
		"cdbserve_databases 1",
		"cdbserve_sampler_cache_size 1",
		"cdbserve_pool_workers",
		"cdbserve_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSamples: 100})
	register(t, ts.URL, "test", testProgram)

	// Unknown database → 404.
	resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "nope", Relation: "S", Seed: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown db: status %d, want 404", resp.StatusCode)
	}
	// Unknown relation → 404, like an unknown database.
	resp, _ = postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "test", Relation: "Z", Seed: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown relation: status %d, want 404", resp.StatusCode)
	}
	// Unbounded relation → 422 (ErrNotWellBounded).
	register(t, ts.URL, "unbounded", `rel U(x, y) := { x >= 0 };`)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "unbounded", Relation: "U", Seed: 1})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unbounded relation: status %d (%s), want 422", resp.StatusCode, body)
	}
	// Over the sample cap → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "test", Relation: "S", N: 101, Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over cap: status %d, want 400", resp.StatusCode)
	}
	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Relation and query together → 400, on /v1/reconstruct too (the
	// engine fallback must not swallow the conflict).
	resp, _ = postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: "test", Relation: "S", Query: "Q", Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("relation+query: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/reconstruct", reconstructRequest{Database: "test", Relation: "S", Query: "Q", Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reconstruct relation+query: status %d, want 400", resp.StatusCode)
	}
	// Over the median_k cap → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/volume", volumeRequest{Database: "test", Relation: "S", Seed: 1, MedianK: 1 << 20})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("median_k over cap: status %d, want 400", resp.StatusCode)
	}
}

func TestRegistryCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDatabases: 1})
	register(t, ts.URL, "one", `rel R(x) := { x >= 0, x <= 1 };`)
	resp, body := postJSON(t, ts.URL+"/v1/databases", registerRequest{Name: "two", Source: `rel R(x) := { x >= 0, x <= 2 };`})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over capacity: status %d (%s), want 507", resp.StatusCode, body)
	}
	// Idempotent re-registration still works at capacity.
	resp, _ = postJSON(t, ts.URL+"/v1/databases", registerRequest{Name: "one", Source: `rel R(x) := { x >= 0, x <= 1 };`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent at capacity: status %d, want 200", resp.StatusCode)
	}
}

func TestPoolSubmitAfterCloseRunsInline(t *testing.T) {
	p := runtime.NewPoolWithSink(2, nil)
	p.Close()
	ran := false
	p.Submit(func() { ran = true }) // must not panic on the closed channel
	if !ran {
		t.Fatal("job did not run after Close")
	}
}
