package server

// Cross-surface conformance: one fixed program, one seed, every sampling
// surface. The facade (named DB methods, Expr terminals, ExecSQL) and the
// HTTP endpoints (/v1/sample, /v1/volume, /v1/expr, /v1/sql) resolve a
// name to one canonical plan and execute it through one executor, so for
// a given seed they must agree on the canonical key, on the sampled
// points byte for byte and on the volume. A golden file pins the
// warm targets' keys, points and volumes on every surface, so
// refactoring the execution core cannot silently move them.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	cdb "repro"
	"repro/internal/runtime"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/surface_golden.json")

// surfaceProgram holds one target of each shape: a single-tuple
// relation, a union, a quantifier-free query, an ∃-query served from its
// eliminated relation, an empty relation and an ∃-query past the
// elimination budget.
var surfaceProgram = `
rel T(x, y) := { x >= 0, y >= 0, x + y <= 1 };
rel U(x, y) := { x >= 0, x <= 1, y >= 0, y <= 1 } | { x >= 2, x <= 3, y >= 0, y <= 1 };
query C(x, y) := T(x, y) & x <= 1/2;
query P(x) := exists y. T(x, y);
rel E(x, y) := { x >= 0, x <= 1, y >= 2, y <= 1 };
` + overBudgetProgram

// surfaceTargets lists the program's targets; query marks the names a
// /v1/sample request addresses through its "query" field.
var surfaceTargets = []struct {
	name              string
	query             bool
	overBudget, empty bool
}{
	{name: "T"},
	{name: "U"},
	{name: "C", query: true},
	{name: "P", query: true},
	{name: "E", empty: true},
	{name: "Far", query: true, overBudget: true},
}

const (
	surfaceSeed    = 7
	surfaceN       = 4
	surfaceWorkers = 2
)

// surfaceRecord is one target's observed behaviour on every surface.
type surfaceRecord struct {
	Key         string                  `json:"key"`
	Points      map[string][]cdb.Vector `json:"points,omitempty"`
	Volumes     map[string]float64      `json:"volumes,omitempty"`
	Reconstruct []hullJSON              `json:"reconstruct,omitempty"`
}

func TestCrossSurfaceConformance(t *testing.T) {
	ctx := context.Background()
	db, err := cdb.Open(surfaceProgram, cdb.WithWorkers(surfaceWorkers))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, ts := newTestServer(t, Config{DefaultWorkers: surfaceWorkers})
	if id := register(t, ts.URL, "main", surfaceProgram); id != "main" {
		t.Fatalf("registered as %q, want main (the facade's entry id, which keys the prepared seed)", id)
	}
	optsKey := cdb.DefaultOptions().CacheKey()

	records := map[string]*surfaceRecord{}
	for _, tg := range surfaceTargets {
		key, err := db.Rel(tg.name).CanonicalKey()
		if err != nil {
			t.Fatalf("%s: canonical key: %v", tg.name, err)
		}
		rec := &surfaceRecord{Key: key, Points: map[string][]cdb.Vector{}, Volumes: map[string]float64{}}
		records[tg.name] = rec
		planKey := runtime.PlanKey("main", key, optsKey)

		// /v1/sample goes first on the server, so the entry it leaves
		// behind names the plan it resolved.
		sreq := sampleRequest{Database: "main", N: surfaceN, Seed: surfaceSeed}
		if tg.query {
			sreq.Query = tg.name
		} else {
			sreq.Relation = tg.name
		}
		resp, body := postJSON(t, ts.URL+"/v1/sample", sreq)
		switch {
		case tg.overBudget:
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "/v1/query") {
				t.Errorf("%s: /v1/sample = %d %s, want 400 pointing at /v1/query", tg.name, resp.StatusCode, body)
			}
		case tg.empty:
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s: /v1/sample = %d %s, want 422", tg.name, resp.StatusCode, body)
			}
		default:
			var out sampleResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("%s: /v1/sample = %d %s", tg.name, resp.StatusCode, body)
			}
			rec.Points["/v1/sample"] = out.Points
		}
		if cached, _ := s.Runtime().Cache().Peek(planKey); !cached {
			t.Errorf("%s: /v1/sample left no entry under the canonical plan key", tg.name)
		}

		// A fresh handle's named SampleNSeeded warms the same key.
		fresh, err := cdb.Open(surfaceProgram, cdb.WithWorkers(surfaceWorkers))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := fresh.SampleNSeeded(ctx, tg.name, surfaceN, surfaceSeed)
		rec.record(t, tg.name, "DB.SampleNSeeded", pts, err, tg.empty)
		if rep, err := fresh.Rel(tg.name).Explain(ctx); err != nil || rep.Cache == "miss" {
			t.Errorf("%s: DB.SampleNSeeded left the canonical key cold (explain %+v, %v)", tg.name, rep, err)
		}
		fresh.Close()

		pts, err = db.Rel(tg.name).SampleNSeeded(ctx, surfaceN, surfaceSeed)
		rec.record(t, tg.name, "Expr.SampleNSeeded", pts, err, tg.empty)
		res, err := db.ExecSQL(ctx, fmt.Sprintf("SELECT * FROM %s SAMPLE %d SEED %d", tg.name, surfaceN, surfaceSeed))
		if err == nil {
			rec.checkKey(t, tg.name, "ExecSQL", res.CanonicalKey)
			pts = res.Points
		}
		rec.record(t, tg.name, "ExecSQL", pts, err, tg.empty)

		eresp, eout, ebody := postExpr(t, ts.URL, exprRequest{Database: "main", Expr: rel(tg.name), Mode: "sample", N: surfaceN, Seed: surfaceSeed})
		rec.recordHTTP(t, tg.name, "/v1/expr", eresp.StatusCode, ebody, eout.CanonicalKey, eout.Points, tg.empty)
		qresp, qout, qbody := postSQL(t, ts.URL, "main", fmt.Sprintf("SELECT * FROM %s SAMPLE %d SEED %d", tg.name, surfaceN, surfaceSeed))
		rec.recordHTTP(t, tg.name, "/v1/sql", qresp.StatusCode, qbody, qout.CanonicalKey, qout.Points, tg.empty)

		for _, got := range rec.Points {
			if !reflect.DeepEqual(got, rec.Points["Expr.SampleNSeeded"]) {
				t.Errorf("%s: points differ across surfaces: %v", tg.name, rec.Points)
				break
			}
		}

		// Volumes: every default-seeded surface reports one estimate.
		v, err := db.Volume(ctx, tg.name)
		rec.volume(t, tg.name, "DB.Volume", v, err)
		v, err = db.Rel(tg.name).Volume(ctx)
		rec.volume(t, tg.name, "Expr.Volume", v, err)
		res, err = db.ExecSQL(ctx, "SELECT VOLUME(*) FROM "+tg.name)
		if err == nil {
			v = res.Volume
		}
		rec.volume(t, tg.name, "ExecSQL", v, err)
		eresp, eout, ebody = postExpr(t, ts.URL, exprRequest{Database: "main", Expr: rel(tg.name), Mode: "volume"})
		if eresp.StatusCode != http.StatusOK || eout.Volume == nil {
			t.Fatalf("%s: /v1/expr volume = %d %s", tg.name, eresp.StatusCode, ebody)
		}
		rec.Volumes["/v1/expr"] = *eout.Volume
		qresp, qout, qbody = postSQL(t, ts.URL, "main", "SELECT VOLUME(*) FROM "+tg.name)
		if qresp.StatusCode != http.StatusOK || qout.Volume == nil {
			t.Fatalf("%s: /v1/sql volume = %d %s", tg.name, qresp.StatusCode, qbody)
		}
		rec.Volumes["/v1/sql"] = *qout.Volume
		for surface, got := range rec.Volumes {
			if got != rec.Volumes["Expr.Volume"] {
				t.Errorf("%s: %s volume %v, Expr.Volume %v", tg.name, surface, got, rec.Volumes["Expr.Volume"])
			}
		}
		if tg.empty && rec.Volumes["Expr.Volume"] != 0 {
			t.Errorf("%s: empty relation volume %v, want 0", tg.name, rec.Volumes["Expr.Volume"])
		}

		// /v1/volume honours its request seed, so it joins the golden
		// rather than the cross-surface equality.
		vreq := volumeRequest{Database: "main", Relation: sreq.Relation, Query: sreq.Query, Seed: surfaceSeed}
		resp, body = postJSON(t, ts.URL+"/v1/volume", vreq)
		if tg.overBudget {
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "/v1/query") {
				t.Errorf("%s: /v1/volume = %d %s, want 400 pointing at /v1/query", tg.name, resp.StatusCode, body)
			}
		} else {
			var out volumeResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("%s: /v1/volume = %d %s", tg.name, resp.StatusCode, body)
			}
			rec.Volumes["/v1/volume"] = out.Volume
		}

		// The over-budget target reconstructs on Algorithm 2; its hulls
		// stay out of the golden with its other draws.
		if !tg.empty {
			rreq := reconstructRequest{Database: "main", Relation: sreq.Relation, Query: sreq.Query, N: 40, Seed: surfaceSeed}
			resp, body = postJSON(t, ts.URL+"/v1/reconstruct", rreq)
			var out reconstructResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("%s: /v1/reconstruct = %d %s", tg.name, resp.StatusCode, body)
			}
			rec.Reconstruct = out.Hulls
		}
	}

	// The golden pins every warm target, and the over-budget target's
	// key: Algorithm 2 draws are pinned by the equality above instead.
	golden := map[string]*surfaceRecord{}
	for _, tg := range surfaceTargets {
		if tg.overBudget {
			golden[tg.name] = &surfaceRecord{Key: records[tg.name].Key}
			continue
		}
		golden[tg.name] = records[tg.name]
	}
	path := filepath.Join("testdata", "surface_golden.json")
	if *updateSurface {
		buf, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*surfaceRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Errorf("surfaces moved off the golden:\n got %s\nwant %s", got, wantJSON)
	}
}

// checkKey asserts a surface reported the target's canonical key.
func (rec *surfaceRecord) checkKey(t *testing.T, name, surface, key string) {
	t.Helper()
	if key != rec.Key {
		t.Errorf("%s: %s canonical key %q, want %q", name, surface, key, rec.Key)
	}
}

// record stores a facade draw, or checks that an empty target failed
// with ErrEmptyExpr.
func (rec *surfaceRecord) record(t *testing.T, name, surface string, pts []cdb.Vector, err error, empty bool) {
	t.Helper()
	switch {
	case empty:
		if !errors.Is(err, cdb.ErrEmptyExpr) {
			t.Errorf("%s: %s error %v, want ErrEmptyExpr", name, surface, err)
		}
	case err != nil:
		t.Fatalf("%s: %s: %v", name, surface, err)
	default:
		rec.Points[surface] = pts
	}
}

// recordHTTP stores an endpoint's draw after checking its key, or checks
// that an empty target answered 422.
func (rec *surfaceRecord) recordHTTP(t *testing.T, name, surface string, status int, body []byte, key string, pts []cdb.Vector, empty bool) {
	t.Helper()
	switch {
	case empty:
		if status != http.StatusUnprocessableEntity {
			t.Errorf("%s: %s = %d %s, want 422", name, surface, status, body)
		}
	case status != http.StatusOK:
		t.Fatalf("%s: %s = %d %s", name, surface, status, body)
	default:
		rec.checkKey(t, name, surface, key)
		rec.Points[surface] = pts
	}
}

// volume stores a facade volume estimate.
func (rec *surfaceRecord) volume(t *testing.T, name, surface string, v float64, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %s: %v", name, surface, err)
	}
	rec.Volumes[surface] = v
}

// TestNamedQuerySurfacesAgree: /v1/query, DB.Query and DB.QueryVolume
// run a named query through the same plan executor as /v1/sample,
// /v1/volume, /v1/reconstruct and the Expr terminals, so one seed gives
// the same points, volumes and hulls on each, and /v1/query routes on
// the key that executor caches under. Nothing here joins the golden.
func TestNamedQuerySurfacesAgree(t *testing.T) {
	ctx := context.Background()
	db, err := cdb.Open(surfaceProgram, cdb.WithWorkers(surfaceWorkers))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, ts := newTestServer(t, Config{DefaultWorkers: surfaceWorkers})
	register(t, ts.URL, "main", surfaceProgram)

	postQuery := func(req queryRequest) queryResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		var out queryResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
			t.Fatalf("/v1/query %s %s = %d %s", req.Mode, req.Query, resp.StatusCode, body)
		}
		return out
	}

	for _, name := range []string{"C", "P", "Far"} {
		want, err := db.Rel(name).SampleNSeeded(ctx, surfaceN, surfaceSeed)
		if err != nil {
			t.Fatal(err)
		}
		out := postQuery(queryRequest{Database: "main", Query: name, Mode: "sample", N: surfaceN, Seed: surfaceSeed})
		if !reflect.DeepEqual(out.Points, want) {
			t.Errorf("%s: /v1/query sample %v, Expr.SampleNSeeded %v", name, out.Points, want)
		}

		qv, err := db.QueryVolume(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := db.Rel(name).Volume(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if qv != ev {
			t.Errorf("%s: DB.QueryVolume %v, Expr.Volume %v", name, qv, ev)
		}

		// Fresh handles start one seed sequence, so DB.Query and
		// Expr.Samples bind the same seed.
		h1, err := cdb.Open(surfaceProgram, cdb.WithWorkers(surfaceWorkers))
		if err != nil {
			t.Fatal(err)
		}
		obs, err := h1.Query(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		var got []cdb.Vector
		for range surfaceN {
			p, err := obs.Sample()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, p)
		}
		h1.Close()
		h2, err := cdb.Open(surfaceProgram, cdb.WithWorkers(surfaceWorkers))
		if err != nil {
			t.Fatal(err)
		}
		var stream []cdb.Vector
		for p, err := range h2.Rel(name).Samples(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			if stream = append(stream, p); len(stream) == surfaceN {
				break
			}
		}
		h2.Close()
		if !reflect.DeepEqual(got, stream) {
			t.Errorf("%s: DB.Query %v, Expr.Samples %v", name, got, stream)
		}

		// One plan, one owner: /v1/query routes like /v1/sample, and
		// symbolic mode like the symbolic cache.
		key, err := db.Rel(name).CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []*OptionsJSON{nil, {Walk: "ball", Eps: 0.3}} {
			qbody, _ := json.Marshal(queryRequest{Database: "main", Query: name, Mode: "sample", Options: opts})
			sbody, _ := json.Marshal(sampleRequest{Database: "main", Query: name, Options: opts})
			if qk, sk := resolvedKey(s.resolveQuery, qbody), resolvedKey(s.resolveSample, sbody); qk == "" || qk != sk {
				t.Errorf("%s: resolveQuery key %q, resolveSample key %q", name, qk, sk)
			}
			qbody, _ = json.Marshal(queryRequest{Database: "main", Query: name, Mode: "symbolic", Options: opts})
			if qk, want := resolvedKey(s.resolveQuery, qbody), runtime.SymbolicKey("main", key); qk != want {
				t.Errorf("%s: symbolic resolveQuery key %q, want %q", name, qk, want)
			}
		}
	}

	// /v1/query volume and reconstruct honour the request seed exactly
	// as /v1/volume and /v1/reconstruct do.
	resp, body := postJSON(t, ts.URL+"/v1/volume", volumeRequest{Database: "main", Query: "C", Seed: surfaceSeed})
	var vout volumeResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &vout) != nil {
		t.Fatalf("/v1/volume = %d %s", resp.StatusCode, body)
	}
	out := postQuery(queryRequest{Database: "main", Query: "C", Mode: "volume", Seed: surfaceSeed})
	if out.Volume == nil {
		t.Fatal("C: /v1/query volume missing")
	}
	if *out.Volume != vout.Volume {
		t.Errorf("C: /v1/query volume %v, /v1/volume %v", *out.Volume, vout.Volume)
	}
	resp, body = postJSON(t, ts.URL+"/v1/reconstruct", reconstructRequest{Database: "main", Query: "C", N: 40, Seed: surfaceSeed})
	var rout reconstructResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rout) != nil {
		t.Fatalf("/v1/reconstruct = %d %s", resp.StatusCode, body)
	}
	if out := postQuery(queryRequest{Database: "main", Query: "C", Mode: "reconstruct", N: 40, Seed: surfaceSeed}); !reflect.DeepEqual(out.Hulls, rout.Hulls) {
		t.Errorf("C: /v1/query reconstruct %v, /v1/reconstruct %v", out.Hulls, rout.Hulls)
	}
}
