package server

// Tests of POST /v1/expr: the JSON algebra endpoint shares the
// prepared-sampler cache across operand orders (and with name-addressed
// requests), serves empty expressions as cached volume-0 verdicts, and
// explains plans without preparing geometry.

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/obs"
)

const exprProgram = `
rel A(x, y) := { 0 <= x <= 1, 0 <= y <= 1 };
rel B(x, y) := { 0.5 <= x <= 2, 0 <= y <= 1 };
rel C(x, y) := { 3 <= x <= 4, 0 <= y <= 1 };
`

func rel(name string) *exprNodeJSON { return &exprNodeJSON{Op: "rel", Name: name} }

func binOp(op string, l, r *exprNodeJSON) *exprNodeJSON {
	return &exprNodeJSON{Op: op, Args: []*exprNodeJSON{l, r}}
}

func postExpr(t *testing.T, url string, req exprRequest) (*http.Response, exprResponse, []byte) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/expr", req)
	var out exprResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decode expr response: %v (%s)", err, body)
		}
	}
	return resp, out, body
}

// TestExprEndpointCacheSharing: the same intersection in two operand
// orders — and then via mode=sample — costs one cold build.
func TestExprEndpointCacheSharing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "exprdb", exprProgram)

	e1 := binOp("intersect", rel("A"), rel("B"))
	e2 := binOp("intersect", rel("B"), rel("A"))

	resp, out1, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e1, Mode: "volume", Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expr volume: status %d (%s)", resp.StatusCode, body)
	}
	if out1.Cache != "miss" {
		t.Fatalf("cold expr cache = %q, want miss", out1.Cache)
	}
	if out1.Volume == nil || math.Abs(*out1.Volume-0.5) > 0.3 {
		t.Fatalf("volume = %v, want ≈ 0.5", out1.Volume)
	}

	resp, out2, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e2, Mode: "volume", Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expr volume (reordered): status %d (%s)", resp.StatusCode, body)
	}
	if out2.Cache != "hit" {
		t.Fatalf("reordered expr cache = %q, want hit", out2.Cache)
	}
	if out1.CanonicalKey != out2.CanonicalKey {
		t.Fatalf("canonical keys differ:\n%s\n%s", out1.CanonicalKey, out2.CanonicalKey)
	}
	if *out1.Volume != *out2.Volume {
		t.Fatalf("shared entry must give identical estimates: %g vs %g", *out1.Volume, *out2.Volume)
	}

	resp, out3, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e1, Mode: "sample", N: 8, Seed: 7, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expr sample: status %d (%s)", resp.StatusCode, body)
	}
	if out3.Cache != "hit" {
		t.Fatalf("warm expr sample cache = %q, want hit", out3.Cache)
	}
	if len(out3.Points) != 8 {
		t.Fatalf("%d points, want 8", len(out3.Points))
	}
	for _, p := range out3.Points {
		if p[0] < 0.5-1e-9 || p[0] > 1+1e-9 || p[1] < -1e-9 || p[1] > 1+1e-9 {
			t.Fatalf("sample %v outside [0.5,1]×[0,1]", p)
		}
	}
}

// TestExprEndpointSharesWithNamedSample: /v1/sample on a relation and
// /v1/expr on its leaf hit one entry.
func TestExprEndpointSharesWithNamedSample(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "exprdb2", exprProgram)

	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: dbID, Relation: "A", N: 4, Seed: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named sample: status %d (%s)", resp.StatusCode, body)
	}
	misses := planEvents(s.metrics, obs.Miss)
	resp2, out, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: rel("A"), Mode: "sample", N: 4, Seed: 1, Options: fastOpts})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("expr sample: status %d (%s)", resp2.StatusCode, body)
	}
	if out.Cache != "hit" {
		t.Fatalf("expr over warm named relation = %q, want hit", out.Cache)
	}
	if got := planEvents(s.metrics, obs.Miss); got != misses {
		t.Fatalf("expr over warm named relation paid %d cold builds", got-misses)
	}
}

// TestExprEndpointEmptyNegative: an infeasible intersection serves
// volume 0, and the replay is a cached negative verdict.
func TestExprEndpointEmptyNegative(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "exprdb3", exprProgram)

	empty := binOp("intersect", rel("A"), rel("C"))
	resp, out, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: empty, Mode: "volume", Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty volume: status %d (%s)", resp.StatusCode, body)
	}
	if !out.Empty || out.Volume == nil || *out.Volume != 0 {
		t.Fatalf("empty expr: empty=%v volume=%v, want true/0", out.Empty, out.Volume)
	}
	resp, out, _ = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: empty, Mode: "volume", Options: fastOpts})
	if resp.StatusCode != http.StatusOK || out.Cache != "negative" {
		t.Fatalf("empty replay: status %d cache %q, want 200/negative", resp.StatusCode, out.Cache)
	}
	// Sampling an empty expression is a client error, not a 500.
	resp, _, _ = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: empty, Mode: "sample", N: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("sampling empty expr: status %d, want 422", resp.StatusCode)
	}

	// The name-addressed /v1/volume agrees with the expression surface:
	// an empty declared relation has volume 0; sampling it is a 422.
	emptyID := register(t, ts.URL, "exprdb3e", `rel E(x, y) := { x <= 0, x >= 1, 0 <= y <= 1 };`)
	httpResp, body := postJSON(t, ts.URL+"/v1/volume", volumeRequest{Database: emptyID, Relation: "E"})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("volume of empty relation: status %d (%s)", httpResp.StatusCode, body)
	}
	var vout volumeResponse
	if err := json.Unmarshal(body, &vout); err != nil {
		t.Fatal(err)
	}
	if vout.Volume != 0 {
		t.Fatalf("volume of empty relation = %g, want 0", vout.Volume)
	}
	httpResp, _ = postJSON(t, ts.URL+"/v1/sample", sampleRequest{Database: emptyID, Relation: "E", N: 1, Seed: 1})
	if httpResp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("sampling empty relation: status %d, want 422", httpResp.StatusCode)
	}
}

// TestExprEndpointExplain: explain reports the canonical plan and cache
// residency without preparing anything.
func TestExprEndpointExplain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "exprdb4", exprProgram)

	e := binOp("intersect", rel("A"), rel("B"))
	resp, out, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e, Mode: "explain", Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d (%s)", resp.StatusCode, body)
	}
	if out.Cache != "miss" || out.Plan == "" || len(out.Disjuncts) != 1 {
		t.Fatalf("cold explain = %+v", out)
	}
	if out.Disjuncts[0].Kind != "convex" || out.Disjuncts[0].Cache != "miss" {
		t.Fatalf("disjunct = %+v", out.Disjuncts[0])
	}
	if planEvents(s.metrics, obs.Miss) != 0 {
		t.Fatal("explain populated the cache")
	}

	// Warm it, re-explain.
	postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e, Mode: "volume", Options: fastOpts})
	_, out, _ = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e, Mode: "explain", Options: fastOpts})
	if out.Cache != "hit" || out.Disjuncts[0].Cache != "hit" {
		t.Fatalf("warm explain = cache %q disjunct %q, want hit/hit", out.Cache, out.Disjuncts[0].Cache)
	}
}

// TestExprEndpointProjection: a projection expression samples through
// the per-request engine fallback.
func TestExprEndpointProjection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "exprdb5", exprProgram)

	proj := &exprNodeJSON{Op: "project", Args: []*exprNodeJSON{rel("A")}, Vars: []string{"x"}}
	resp, out, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: proj, Mode: "sample", N: 5, Seed: 3, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("projection sample: status %d (%s)", resp.StatusCode, body)
	}
	if len(out.Points) != 5 || len(out.Points[0]) != 1 {
		t.Fatalf("projection points %d×%d, want 5×1", len(out.Points), len(out.Points[0]))
	}
	resp, out, body = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: proj, Mode: "volume", Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("projection volume: status %d (%s)", resp.StatusCode, body)
	}
	if out.Volume == nil || math.Abs(*out.Volume-1) > 0.5 {
		t.Fatalf("projection volume %v, want ≈ 1", out.Volume)
	}
}

// TestExprEndpointErrors: malformed trees and unknown names map to
// client statuses.
func TestExprEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "exprdb6", exprProgram)

	cases := []struct {
		name string
		req  exprRequest
		want int
	}{
		{"unknown database", exprRequest{Database: "nope", Expr: rel("A")}, http.StatusNotFound},
		{"unknown relation", exprRequest{Database: dbID, Expr: rel("Z")}, http.StatusNotFound},
		{"unknown op", exprRequest{Database: dbID, Expr: &exprNodeJSON{Op: "join"}}, http.StatusBadRequest},
		{"missing expr", exprRequest{Database: dbID}, http.StatusBadRequest},
		{"arity mismatch", exprRequest{Database: dbID, Expr: &exprNodeJSON{Op: "union", Args: []*exprNodeJSON{rel("A")}}}, http.StatusBadRequest},
		{"bad mode", exprRequest{Database: dbID, Expr: rel("A"), Mode: "dance"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _, body := postExpr(t, ts.URL, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
	}
}

// TestExprEndpointSymbolicMode: mode=symbolic runs full quantifier
// elimination — including trees the sampling modes reject (division) —
// returns the eliminated DNF as a parseable source plus its exact
// volume, and replays from the prepared-symbolic cache.
func TestExprEndpointSymbolicMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dbID := register(t, ts.URL, "symdb", exprProgram+`
rel N(x, y) := { 0 <= x <= 3, 0 <= y <= 1, x + y <= 3 };
rel O(y)    := { 0 <= y <= 1 };
`)

	// In-fragment union: exact area 2.
	e := binOp("union", rel("A"), rel("B"))
	resp, out, body := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e, Mode: "symbolic"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic: status %d (%s)", resp.StatusCode, body)
	}
	if out.Cache != "miss" || out.Tuples == 0 || out.Source == "" {
		t.Fatalf("cold symbolic response: cache %q, tuples %d, source %q", out.Cache, out.Tuples, out.Source)
	}
	if out.Volume == nil || math.Abs(*out.Volume-2) > 1e-6 {
		t.Fatalf("exact volume = %v, want 2", out.Volume)
	}
	if _, out, _ = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: e, Mode: "symbolic"}); out.Cache != "hit" {
		t.Fatalf("replay cache = %q, want hit", out.Cache)
	}

	// Division: unprocessable under mode=volume (outside the sampling
	// fragment, the server's 422 convention), exact [0,2] under
	// mode=symbolic.
	div := binOp("div", rel("N"), rel("O"))
	if resp, _, b := postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: div, Mode: "volume", Options: fastOpts}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("div under mode=volume: status %d, want 422 (%s)", resp.StatusCode, b)
	}
	resp, out, body = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: div, Mode: "symbolic"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic div: status %d (%s)", resp.StatusCode, body)
	}
	if out.Volume == nil || math.Abs(*out.Volume-2) > 1e-6 {
		t.Fatalf("div exact volume = %v, want 2", out.Volume)
	}
	if len(out.Columns) != 1 || out.Columns[0] != "x" {
		t.Fatalf("div columns = %v, want [x]", out.Columns)
	}

	// A provably empty difference replays as a negative verdict.
	empty := binOp("minus", rel("A"), rel("A"))
	if _, out, _ = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: empty, Mode: "symbolic"}); !out.Empty || out.Volume == nil || *out.Volume != 0 {
		t.Fatalf("empty symbolic: empty=%v volume=%v", out.Empty, out.Volume)
	}
	if _, out, _ = postExpr(t, ts.URL, exprRequest{Database: dbID, Expr: empty, Mode: "symbolic"}); out.Cache != "negative" {
		t.Fatalf("empty replay cache = %q, want negative", out.Cache)
	}
}
