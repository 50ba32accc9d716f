package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	cdb "repro"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/spacetime"
)

// motionProgram renders two hand-made crossing commuters (see the
// spacetime package tests) plus a third object far away, as a
// registrable program. Support is t ∈ [0, 10].
func motionProgram(t *testing.T) string {
	t.Helper()
	a, err := spacetime.NewTrajectory("A", 3, 0,
		spacetime.Observation{T: 0, P: linalg.Vector{0, 0}},
		spacetime.Observation{T: 5, P: linalg.Vector{10, 0}},
		spacetime.Observation{T: 10, P: linalg.Vector{20, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spacetime.NewTrajectory("B", 3, 0,
		spacetime.Observation{T: 0, P: linalg.Vector{10, 10}},
		spacetime.Observation{T: 5, P: linalg.Vector{10, 1}},
		spacetime.Observation{T: 10, P: linalg.Vector{10, -10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	far, err := spacetime.NewTrajectory("Far", 3, 0,
		spacetime.Observation{T: 0, P: linalg.Vector{500, 500}},
		spacetime.Observation{T: 10, P: linalg.Vector{510, 500}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.FleetProgram([]*spacetime.Trajectory{a, b, far})
}

func TestSpacetimeSliceSampleAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	register(t, ts.URL, "motion", motionProgram(t))

	req := spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 2.5, N: 40, Seed: 9, Options: fastOpts}
	resp, body := postJSON(t, ts.URL+"/v1/spacetime/slice", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slice: status %d, body %s", resp.StatusCode, body)
	}
	var out spacetimeSliceResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "miss" {
		t.Errorf("first slice cache = %q, want miss", out.Cache)
	}
	if len(out.Points) != 40 {
		t.Fatalf("got %d points", len(out.Points))
	}
	for _, p := range out.Points {
		if len(p) != 2 {
			t.Fatalf("snapshot point %v is not spatial-only", p)
		}
	}

	// Same request again: cache hit, identical points.
	resp, body2 := postJSON(t, ts.URL+"/v1/spacetime/slice", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm slice: status %d", resp.StatusCode)
	}
	var warm spacetimeSliceResponse
	if err := json.Unmarshal(body2, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "hit" {
		t.Errorf("warm slice cache = %q, want hit", warm.Cache)
	}
	for i := range out.Points {
		if !out.Points[i].Equal(warm.Points[i], 0) {
			t.Fatalf("point %d differs between cold and warm: %v vs %v", i, out.Points[i], warm.Points[i])
		}
	}
	if got := s.rt.Cache().Len(); got != 1 {
		t.Errorf("sampler cache holds %d entries, want 1", got)
	}

	// A different t0 is a different cache entry.
	req.T0 = 7.5
	postJSON(t, ts.URL+"/v1/spacetime/slice", req)
	if got := s.rt.Cache().Len(); got != 2 {
		t.Errorf("sampler cache holds %d entries, want 2", got)
	}
}

func TestSpacetimeSliceVolumeAndDegenerate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "motion", motionProgram(t))

	// Interior slice: positive snapshot area.
	resp, body := postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 2.5, Mode: "volume", Seed: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("volume: status %d, body %s", resp.StatusCode, body)
	}
	var out spacetimeSliceResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Volume == nil || *out.Volume <= 0 {
		t.Fatalf("snapshot volume = %v, want > 0", out.Volume)
	}
	if out.Empty {
		t.Error("interior slice flagged empty")
	}

	// t0 outside the support: zero volume, empty flag, still 200.
	resp, body = postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 99, Mode: "volume", Seed: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty volume: status %d, body %s", resp.StatusCode, body)
	}
	out = spacetimeSliceResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Empty || out.Volume == nil || *out.Volume != 0 {
		t.Fatalf("empty slice: empty=%v volume=%v, want true/0", out.Empty, out.Volume)
	}

	// Sampling the empty slice is a clean 422 naming the support.
	resp, body = postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 99, N: 5, Seed: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty slice sample: status %d, want 422 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "outside the support [0, 10]") {
		t.Errorf("error should name the support, got %s", body)
	}

	// Slicing exactly at an observation time pins the object to a single
	// point — a measure-zero snapshot, answered with a clean 422.
	resp, body = postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 5, N: 5, Seed: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("observation-time slice: status %d, want 422 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "measure-zero") {
		t.Errorf("error should explain the degeneracy, got %s", body)
	}

	// Unknown relation and bad mode are client errors.
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "Nope", T0: 1, Seed: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown relation: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 1, Mode: "banana", Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status %d, want 400", resp.StatusCode)
	}
}

func TestSpacetimeSampleWholeAndWindow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "motion", motionProgram(t))

	// Whole trajectory: points are (x, y, t) with t in the support.
	resp, body := postJSON(t, ts.URL+"/v1/spacetime/sample",
		spacetimeSampleRequest{Database: "motion", Relation: "A", N: 30, Seed: 4, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
	}
	var out sampleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 30 {
		t.Fatalf("got %d points", len(out.Points))
	}
	for _, p := range out.Points {
		if len(p) != 3 {
			t.Fatalf("space-time point %v is not 3-D", p)
		}
		if p[2] < -1e-9 || p[2] > 10+1e-9 {
			t.Fatalf("sample time %g outside [0, 10]", p[2])
		}
	}

	// Windowed sampling stays inside the window.
	lo, hi := 1.0, 4.0
	resp, body = postJSON(t, ts.URL+"/v1/spacetime/sample",
		spacetimeSampleRequest{Database: "motion", Relation: "A", T0: &lo, T1: &hi, N: 20, Seed: 4, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window sample: status %d, body %s", resp.StatusCode, body)
	}
	out = sampleResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Points {
		if p[2] < lo-1e-9 || p[2] > hi+1e-9 {
			t.Fatalf("windowed sample time %g outside [%g, %g]", p[2], lo, hi)
		}
	}

	// A window whose boundary coincides with an observation time (t = 5
	// is A's middle fix) clips one bead to a flat set; the flat piece is
	// shed and the rest samples fine.
	blo, bhi := 5.0, 10.0
	resp, body = postJSON(t, ts.URL+"/v1/spacetime/sample",
		spacetimeSampleRequest{Database: "motion", Relation: "A", T0: &blo, T1: &bhi, N: 10, Seed: 4, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boundary window sample: status %d, body %s", resp.StatusCode, body)
	}

	// Disjoint window: clean 422; half-open window spec: 400.
	wlo, whi := 50.0, 60.0
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/sample",
		spacetimeSampleRequest{Database: "motion", Relation: "A", T0: &wlo, T1: &whi, N: 5, Seed: 1, Options: fastOpts})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("disjoint window: status %d, want 422", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/sample",
		spacetimeSampleRequest{Database: "motion", Relation: "A", T0: &wlo, N: 5, Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("half-open window: status %d, want 400", resp.StatusCode)
	}
}

func TestSpacetimeAlibiEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "motion", motionProgram(t))

	// A and B cross around t = 5.
	resp, body := postJSON(t, ts.URL+"/v1/spacetime/alibi",
		alibiRequest{Database: "motion", A: "A", B: "B", T0: 0, T1: 10, Seed: 3, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alibi: status %d, body %s", resp.StatusCode, body)
	}
	var out alibiResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Meet || !out.SymbolicMeet || !out.Consistent {
		t.Fatalf("A/B should meet consistently: %+v", out.Report)
	}
	if out.Volume <= 0 || len(out.MeetTimes) == 0 {
		t.Fatalf("meeting volume %g, intervals %v", out.Volume, out.MeetTimes)
	}

	// A and Far cannot meet.
	resp, body = postJSON(t, ts.URL+"/v1/spacetime/alibi",
		alibiRequest{Database: "motion", A: "A", B: "Far", T0: 0, T1: 10, Seed: 3, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alibi far: status %d, body %s", resp.StatusCode, body)
	}
	out = alibiResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Meet || out.SymbolicMeet || !out.Consistent {
		t.Fatalf("A/Far should be refuted consistently: %+v", out.Report)
	}

	// Client errors: unknown relation, inverted window, median_k cap.
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/alibi",
		alibiRequest{Database: "motion", A: "A", B: "Nope", T0: 0, T1: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown b: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/alibi",
		alibiRequest{Database: "motion", A: "A", B: "B", T0: 5, T1: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("inverted window: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/spacetime/alibi",
		alibiRequest{Database: "motion", A: "A", B: "B", T0: 0, T1: 10, MedianK: 10_000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("median_k cap: status %d, want 400", resp.StatusCode)
	}
}

// TestSpacetimeAlibiMedianK: median_k runs k independent preparations
// of the meet region, so on the single-tuple A/B region (exact volume
// 10 · 0.5 · 1 = 5) k = 3 must not return the warm preparation-time
// estimate k = 1 returns, and must stay within (1±ε)·5.
func TestSpacetimeAlibiMedianK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "ab", `
rel A(x, y, t) := { 0 <= t <= 10, t <= x <= t + 1, 0 <= y <= 1 };
rel B(x, y, t) := { 0 <= t <= 10, t - 0.5 <= x <= t + 0.5, 0 <= y <= 1 };
`)
	volume := func(k int) float64 {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/spacetime/alibi",
			alibiRequest{Database: "ab", A: "A", B: "B", T0: 0, T1: 10, Seed: 7, MedianK: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alibi median_k=%d: status %d, body %s", k, resp.StatusCode, body)
		}
		var out alibiResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Meet || !out.Consistent {
			t.Fatalf("median_k=%d: A/B should meet consistently: %+v", k, out.Report)
		}
		return out.Volume
	}
	one, three := volume(1), volume(3)
	if three == one {
		t.Fatalf("median_k=3 volume %v is the k = 1 estimate: the median amplified nothing", three)
	}
	if eps := cdb.DefaultOptions().Params.Eps; math.Abs(three-5) > eps*5 {
		t.Fatalf("median_k=3 volume %v, want (1±%g)·5", three, eps)
	}
}

func TestSpacetimeMetricsAndLatency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "motion", motionProgram(t))
	postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 2.5, N: 3, Seed: 1, Options: fastOpts})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1<<20)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	text := string(raw[:n])
	for _, want := range []string{
		`cdbserve_requests_total{endpoint="spacetime_slice"} 1`,
		`cdbserve_request_duration_seconds_count{endpoint="spacetime_slice"} 1`,
		`cdbserve_request_duration_seconds_sum{endpoint="spacetime_slice"}`,
		`cdbserve_request_duration_seconds_max{endpoint="spacetime_slice"}`,
		`cdbserve_request_duration_seconds_count{endpoint="databases"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestSpacetimeSliceStream checks the NDJSON form of the slice endpoint.
func TestSpacetimeSliceStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, "motion", motionProgram(t))
	resp, body := postJSON(t, ts.URL+"/v1/spacetime/slice",
		spacetimeSliceRequest{Database: "motion", Relation: "A", T0: 2.5, N: 7, Seed: 2, Stream: true, Options: fastOpts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 8 { // meta + 7 points
		t.Fatalf("got %d NDJSON lines, want 8", len(lines))
	}
	var meta spacetimeSliceResponse
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	for _, l := range lines[1:] {
		var p cdb.Vector
		if err := json.Unmarshal([]byte(l), &p); err != nil {
			t.Fatalf("point line %q: %v", l, err)
		}
		if len(p) != 2 {
			t.Fatalf("streamed point %v not 2-D", p)
		}
	}
}
