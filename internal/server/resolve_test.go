package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// routeOptsKey resolves wire options to their cache fingerprint, the
// options part of the key a request routes on.
func routeOptsKey(o *OptionsJSON) (string, bool) {
	opts, err := o.toOptions()
	if err != nil {
		return "", false
	}
	return opts.CacheKey(), true
}

// resolvedKey runs an endpoint's resolve step on a request body and
// returns the key it routes on, or "" when resolve refuses the request.
func resolvedKey(resolve resolveFunc, body []byte) string {
	req, err := resolve(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
	if err != nil {
		return ""
	}
	return req.key
}

// postRaw posts a raw body and returns the status, the response body
// and the X-CDB-Owner header (set when the request was forwarded).
func postRaw(t *testing.T, url, ctype, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, ctype, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, string(out), resp.Header.Get("X-CDB-Owner")
}

// loggedResolves splits a node's slow-query log into the requests it
// served on endpoint and returns, per request, the keys of the resolve
// spans in its span tree.
func loggedResolves(logged, endpoint string) [][]string {
	var out [][]string
	for _, block := range strings.Split(logged, "slow query: ")[1:] {
		if !strings.HasPrefix(block, "endpoint="+endpoint+" ") {
			continue
		}
		keys := []string{}
		for _, line := range strings.Split(block, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0] != "resolve" {
				continue
			}
			key := ""
			for _, f := range fields {
				if k, ok := strings.CutPrefix(f, "key="); ok {
					key = k
				}
			}
			keys = append(keys, key)
		}
		out = append(out, keys)
	}
	return out
}

// TestClusterResolvesOncePerNode: each node that handles a /v1/sql or
// /v1/expr request decodes, compiles and canonicalizes it once — the
// owner once when the request enters there; the ingress once and the
// owner once when it is forwarded. Every node logs each request's span
// tree (SlowQuery 1 ns), and each tree must hold exactly one resolve
// span, keyed by the plan key the request routes on.
func TestClusterResolvesOncePerNode(t *testing.T) {
	logs := make([]*syncBuffer, 3)
	tc := newTestCluster(t, 3, func(i int, cfg *Config) {
		logs[i] = &syncBuffer{}
		cfg.SlowQuery = time.Nanosecond
		cfg.Logger = log.New(logs[i], "", 0)
	})
	register(t, tc.urls[0], "test", testProgram)
	// Both surfaces run under default options, like /v1/sample with none.
	key := planKeyOf(t, "test", testProgram, "S", nil)
	owner := tc.ownerIndex(t, key)

	send := map[string]func(url string) *http.Response{
		"sql": func(url string) *http.Response {
			resp, _, body := postSQL(t, url, "test", "SELECT * FROM S SAMPLE 4 SEED 7")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sql via %s: status %d, body %s", url, resp.StatusCode, body)
			}
			return resp
		},
		"expr": func(url string) *http.Response {
			resp, body := postJSONHeaders(t, url+"/v1/expr",
				exprRequest{Database: "test", Expr: rel("S"), Mode: "sample", N: 4, Seed: 7}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("expr via %s: status %d, body %s", url, resp.StatusCode, body)
			}
			return resp
		},
	}
	served := func(endpoint string) []int {
		n := make([]int, len(logs))
		for i, l := range logs {
			n[i] = len(loggedResolves(l.String(), endpoint))
		}
		return n
	}
	for _, endpoint := range []string{"sql", "expr"} {
		for hop := 0; hop < 3; hop++ {
			ingress := (owner + hop) % 3
			want := served(endpoint)
			want[ingress]++
			if ingress != owner {
				want[owner]++
			}
			resp := send[endpoint](tc.urls[ingress])
			wantOwner := ""
			if ingress != owner {
				wantOwner = tc.urls[owner]
			}
			if got := resp.Header.Get("X-CDB-Owner"); got != wantOwner {
				t.Fatalf("%s via node %d: X-CDB-Owner %q, want %q", endpoint, ingress, got, wantOwner)
			}
			// Nodes log after answering: wait for the handling nodes' lines.
			deadline := time.Now().Add(5 * time.Second)
			got := served(endpoint)
			for got[ingress] < want[ingress] || got[owner] < want[owner] {
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
				got = served(endpoint)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s via node %d (owner %d): node %d logged %d requests, want %d", endpoint, ingress, owner, i, got[i], want[i])
				}
			}
		}
		for i, l := range logs {
			for j, keys := range loggedResolves(l.String(), endpoint) {
				if len(keys) != 1 || keys[0] != key {
					t.Errorf("%s request %d on node %d: resolve spans keyed %q, want exactly one keyed %q", endpoint, j, i, keys, key)
				}
			}
		}
	}
}

// TestClusterRejectsAlikeOnEveryNode: a request its resolve step
// refuses, or that its owner's runtime refuses, gets the same status
// and error body whichever cluster node it enters at — the owner or a
// non-owner of any key it names — and from a single-node server. One
// that resolve refuses is answered where it entered, never forwarded.
func TestClusterRejectsAlikeOnEveryNode(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	_, single := newTestServer(t, Config{})
	motion := motionProgram(t)
	for _, url := range []string{tc.urls[0], single.URL} {
		register(t, url, "test", testProgram)
		register(t, url, "motion", motion)
	}

	// atOwner marks a request resolve accepts and the owner's runtime
	// refuses: it is forwarded like any other.
	type rejection struct {
		name, path, ctype, body string
		atOwner                 bool
	}
	var cases []rejection
	// Each JSON endpoint: a valid request, the field naming its target
	// and its body limit.
	for _, ep := range []struct {
		path   string
		valid  map[string]any
		target string
		limit  int
	}{
		{"/v1/sample", map[string]any{"database": "test", "relation": "S", "n": 2, "seed": 1}, "relation", 1 << 16},
		{"/v1/volume", map[string]any{"database": "test", "relation": "S", "seed": 1}, "relation", 1 << 16},
		{"/v1/query", map[string]any{"database": "test", "query": "C", "mode": "sample", "n": 2, "seed": 1}, "query", 1 << 16},
		{"/v1/reconstruct", map[string]any{"database": "test", "relation": "S", "n": 20, "seed": 1}, "relation", 1 << 16},
		{"/v1/expr", map[string]any{"database": "test", "expr": rel("S"), "mode": "sample", "n": 2, "seed": 1}, "expr", 1 << 18},
		{"/v1/spacetime/slice", map[string]any{"database": "motion", "relation": "A", "t0": 2.5, "n": 2, "seed": 1}, "relation", 1 << 16},
		{"/v1/spacetime/sample", map[string]any{"database": "motion", "relation": "A", "n": 2, "seed": 1}, "relation", 1 << 16},
		{"/v1/spacetime/alibi", map[string]any{"database": "motion", "a": "A", "b": "B", "t0": 0, "t1": 10, "seed": 1}, "b", 1 << 16},
	} {
		with := func(field string, v any) string {
			m := map[string]any{}
			for k, x := range ep.valid {
				m[k] = x
			}
			m[field] = v
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		unknown := any("Nope")
		if ep.target == "expr" {
			unknown = rel("Nope")
		}
		// Spacetime slices and alibis key on names their runtime resolves.
		spacetimeKey := ep.path == "/v1/spacetime/slice" || ep.path == "/v1/spacetime/alibi"
		for _, c := range []rejection{
			{"malformed JSON", ep.path, "application/json", `{"database":`, false},
			{"unknown field", ep.path, "application/json", with("bogus", 1), false},
			{"unknown database", ep.path, "application/json", with("database", "nope"), false},
			{"unknown target", ep.path, "application/json", with(ep.target, unknown), spacetimeKey},
			{"bad options", ep.path, "application/json", with("options", map[string]any{"walk": "sideways"}), false},
			{"over the size limit", ep.path, "application/json", with("database", strings.Repeat("x", ep.limit)), false},
		} {
			c.name = ep.path + " " + c.name
			cases = append(cases, c)
		}
	}
	cases = append(cases,
		rejection{"/v1/sql unparsable statement", "/v1/sql?database=test", "text/plain", "SELEC * FROM S", false},
		rejection{"/v1/sql unknown relation", "/v1/sql?database=test", "text/plain", "SELECT * FROM Nope SAMPLE 2", false},
		rejection{"/v1/sql unknown database", "/v1/sql?database=nope", "text/plain", "SELECT * FROM S SAMPLE 2", false},
		rejection{"/v1/sql bad workers", "/v1/sql?database=test&workers=-1", "text/plain", "SELECT * FROM S SAMPLE 2", false},
		rejection{"/v1/sql over the size limit", "/v1/sql?database=test", "text/plain", "SELECT * FROM S SAMPLE 2" + strings.Repeat(" ", maxSQLBytes), false},
	)

	for _, c := range cases {
		wantStatus, wantBody, _ := postRaw(t, single.URL+c.path, c.ctype, c.body)
		if wantStatus < 400 || !strings.Contains(wantBody, `"error"`) {
			t.Errorf("%s: single node answered %d %s, want an error", c.name, wantStatus, wantBody)
			continue
		}
		forwarded := 0
		for i, u := range tc.urls {
			status, body, owner := postRaw(t, u+c.path, c.ctype, c.body)
			if status != wantStatus || body != wantBody {
				t.Errorf("%s: node %d answered %d %s; single node %d %s", c.name, i, status, body, wantStatus, wantBody)
			}
			if owner != "" {
				forwarded++
			}
		}
		if !c.atOwner && forwarded > 0 {
			t.Errorf("%s: %d nodes forwarded a request resolve refuses", c.name, forwarded)
		}
	}
}
