package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceHeaderAndSpans: every instrumented request carries an
// X-Trace-Id header and echoes it in the response; "trace": true adds
// the span tree with the pipeline stages underneath the endpoint root.
func TestTraceHeaderAndSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, "obs", testProgram)

	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleRequest{
		Database: id, Relation: "S", N: 8, Seed: 7, Trace: true, Options: fastOpts,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
	}
	header := resp.Header.Get("X-Trace-Id")
	if header == "" {
		t.Fatal("no X-Trace-Id header")
	}
	var out sampleResponse
	mustDecode(t, body, &out)
	if out.TraceID != header {
		t.Fatalf("trace id mismatch: body %q, header %q", out.TraceID, header)
	}
	if out.Spans == nil {
		t.Fatal("trace requested but no spans in response")
	}
	if out.Spans.Name != "sample" {
		t.Fatalf("root span = %q, want sample", out.Spans.Name)
	}
	if !spanTreeHas(out.Spans, "sample.batch") {
		t.Fatalf("span tree missing sample.batch: %+v", out.Spans)
	}
	// The resolve step (decode, name resolution) is the root's first
	// stage, keyed by the plan key the request routes on.
	if c := out.Spans.Children; len(c) == 0 || c[0].Name != "resolve" ||
		c[0].Key != planKeyOf(t, id, testProgram, "S", fastOpts) {
		t.Fatalf("first stage is not resolve keyed by S's plan key: %+v", out.Spans)
	}

	// Without the flag the id still appears but the tree is omitted.
	resp, body = postJSON(t, ts.URL+"/v1/sample", sampleRequest{
		Database: id, Relation: "S", N: 8, Seed: 7, Options: fastOpts,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
	}
	var out2 sampleResponse
	mustDecode(t, body, &out2)
	if out2.TraceID == "" || out2.Spans != nil {
		t.Fatalf("untraced response: trace_id=%q spans=%v", out2.TraceID, out2.Spans)
	}
	if out2.TraceID == header {
		t.Fatal("two requests share one trace id")
	}
}

func spanTreeHas(s *spanJSON, name string) bool {
	if s == nil {
		return false
	}
	if s.Name == name {
		return true
	}
	for i := range s.Children {
		if spanTreeHas(&s.Children[i], name) {
			return true
		}
	}
	return false
}

func mustDecode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
}

// TestMetricsCacheEventsAndStages: /metrics exposes the per-kind cache
// event counters and the per-stage duration histograms after traffic.
func TestMetricsCacheEventsAndStages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, "obs", testProgram)

	for i := 0; i < 2; i++ { // one cold miss, one warm hit
		resp, body := postJSON(t, ts.URL+"/v1/sample", sampleRequest{
			Database: id, Relation: "S", N: 4, Seed: 3, Options: fastOpts,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`cdbserve_cache_events_total{kind="plan",outcome="miss"} 1`,
		`cdbserve_cache_events_total{kind="plan",outcome="hit"} 1`,
		`cdbserve_stage_duration_seconds_bucket{stage="sample.batch",le="+Inf"}`,
		`cdbserve_stage_duration_seconds_count{stage="sample.batch"} 2`,
		`cdbserve_stage_duration_seconds_sum{stage="sample.batch"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestDebugHandler: the operator-only mux serves pprof, expvar and the
// observed cost table.
func TestDebugHandler(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, "obs", testProgram)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleRequest{
		Database: id, Relation: "S", N: 4, Seed: 3, Options: fastOpts,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
	}

	debug := httptest.NewServer(s.DebugHandler())
	defer debug.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/costs"} {
		resp, err := http.Get(debug.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/costs" && !strings.Contains(string(body), `"key"`) {
			t.Fatalf("cost dump has no entries:\n%s", body)
		}
	}
}

// TestSlowQueryLog: requests over the threshold land in the configured
// logger with their endpoint, duration and trace id.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    log.New(&buf, "", 0),
	})
	id := register(t, ts.URL, "obs", testProgram)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleRequest{
		Database: id, Relation: "S", N: 4, Seed: 3, Options: fastOpts,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d, body %s", resp.StatusCode, body)
	}
	trace := resp.Header.Get("X-Trace-Id")
	logged := buf.String()
	if !strings.Contains(logged, "slow query: endpoint=sample") {
		t.Fatalf("no slow-query line for the sample endpoint:\n%s", logged)
	}
	if !strings.Contains(logged, "trace="+trace) {
		t.Fatalf("slow-query line missing trace id %s:\n%s", trace, logged)
	}
	if !strings.Contains(logged, "sample.batch") {
		t.Fatalf("slow-query line missing span summary:\n%s", logged)
	}
}

// syncBuffer is a bytes.Buffer safe for the logger's goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
