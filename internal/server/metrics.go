package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// formatFloat renders a histogram bucket bound the way Prometheus
// clients do: shortest decimal round-trip representation.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Metrics collects the server's operational counters and renders them in
// the Prometheus text exposition format (no client library dependency —
// the format is four lines of fmt per family).
type Metrics struct {
	start time.Time

	mu          sync.Mutex
	requests    map[string]*atomic.Int64 // per-endpoint request counts
	errors      map[string]*atomic.Int64 // per-endpoint error counts
	latencies   map[string]*latencySummary
	cacheEvents map[string]*atomic.Int64  // per {kind,outcome} cache events
	auditEvents map[string]*atomic.Int64  // per {check,outcome} audit verdicts
	stages      map[string]*stageDuration // per-stage duration histograms
	routeEvents map[string]*atomic.Int64  // per {endpoint,decision} routing verdicts
	shedEvents  map[string]*atomic.Int64  // per {endpoint,reason} admission sheds

	Coalesced     atomic.Int64 // sample requests served by another request's draw
	BatchJobs     atomic.Int64 // worker-pool jobs executed
	SamplesServed atomic.Int64 // points returned across all sample responses
}

// stageBuckets are the histogram upper bounds (seconds) of
// cdbserve_stage_duration_seconds: sub-millisecond warm stages up to
// multi-second cold preparations and eliminations.
var stageBuckets = []float64{0.0001, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// numStageBuckets must equal len(stageBuckets); the init check below
// keeps them in sync.
const numStageBuckets = 8

func init() {
	if len(stageBuckets) != numStageBuckets {
		panic("server: stageBuckets size drifted from numStageBuckets")
	}
}

// stageDuration is one Prometheus histogram: cumulative bucket counts,
// total count and sum of observations.
type stageDuration struct {
	buckets [numStageBuckets]atomic.Int64
	count   atomic.Int64
	sumNano atomic.Int64 // seconds are accumulated as integer nanoseconds
}

func (h *stageDuration) observe(seconds float64) {
	for i, ub := range stageBuckets {
		if seconds <= ub {
			h.buckets[i].Add(1)
		}
	}
	h.count.Add(1)
	h.sumNano.Add(int64(seconds * 1e9))
}

// latencySummary accumulates a Prometheus summary without quantiles:
// observation count, total seconds and the worst observation.
type latencySummary struct {
	count int64
	sum   float64
	max   float64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:       time.Now(),
		requests:    map[string]*atomic.Int64{},
		errors:      map[string]*atomic.Int64{},
		latencies:   map[string]*latencySummary{},
		cacheEvents: map[string]*atomic.Int64{},
		auditEvents: map[string]*atomic.Int64{},
		stages:      map[string]*stageDuration{},
		routeEvents: map[string]*atomic.Int64{},
		shedEvents:  map[string]*atomic.Int64{},
	}
}

func (m *Metrics) counter(set map[string]*atomic.Int64, key string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := set[key]
	if !ok {
		c = &atomic.Int64{}
		set[key] = c
	}
	return c
}

// The obs.Sink implementation: the shared runtime reports cache and
// pool events through these, keeping the counters (and their
// Prometheus rendering) where the HTTP layer owns them.

// CacheEvent records one cache lookup outcome per {kind,outcome}
// (cdbserve_cache_events_total).
func (m *Metrics) CacheEvent(kind obs.CacheKind, outcome obs.CacheOutcome) {
	m.counter(m.cacheEvents, kind.String()+"|"+outcome.String()).Add(1)
}

// CoalescedDraw records a batched draw served by an identical in-flight
// draw.
func (m *Metrics) CoalescedDraw() { m.Coalesced.Add(1) }

// BatchJob records one worker-pool job execution.
func (m *Metrics) BatchJob() { m.BatchJobs.Add(1) }

// AuditEvent records one background self-audit verdict per
// {check, outcome} (cdbserve_audit_total) — the Prometheus face of the
// quality auditor.
func (m *Metrics) AuditEvent(ev obs.AuditEvent) {
	m.counter(m.auditEvents, ev.Check+"|"+ev.Outcome.String()).Add(1)
}

var (
	_ obs.Sink      = (*Metrics)(nil)
	_ obs.AuditSink = (*Metrics)(nil)
)

// ObserveStage records one pipeline stage duration (seconds) in the
// cdbserve_stage_duration_seconds histogram under the stage label.
func (m *Metrics) ObserveStage(stage string, seconds float64) {
	m.mu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = &stageDuration{}
		m.stages[stage] = h
	}
	m.mu.Unlock()
	h.observe(seconds)
}

// stageSnapshot copies the stage histogram pointers under the lock;
// the histograms themselves are atomic and safe to read after.
func (m *Metrics) stageSnapshot() map[string]*stageDuration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*stageDuration, len(m.stages))
	for k, h := range m.stages {
		out[k] = h
	}
	return out
}

// IncRoute counts one cluster routing verdict per {endpoint, decision}:
// "local" (this node owns the key or no key was extractable), "forward"
// (proxied to the owner), "fallback_breaker" / "fallback_error" (owner
// unreachable, computed locally) or "hop_limit" (forwarding chain cut).
func (m *Metrics) IncRoute(endpoint, decision string) {
	m.counter(m.routeEvents, endpoint+"|"+decision).Add(1)
}

// IncShed counts one request shed by admission control per
// {endpoint, reason}: "capacity" (in-flight budget) or "quota"
// (tenant token bucket).
func (m *Metrics) IncShed(endpoint, reason string) {
	m.counter(m.shedEvents, endpoint+"|"+reason).Add(1)
}

// IncRequest counts one request to the named endpoint.
func (m *Metrics) IncRequest(endpoint string) { m.counter(m.requests, endpoint).Add(1) }

// IncError counts one failed request to the named endpoint.
func (m *Metrics) IncError(endpoint string) { m.counter(m.errors, endpoint).Add(1) }

// ObserveLatency records one request's wall-clock duration in seconds
// under the endpoint label.
func (m *Metrics) ObserveLatency(endpoint string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.latencies[endpoint]
	if !ok {
		l = &latencySummary{}
		m.latencies[endpoint] = l
	}
	l.count++
	l.sum += seconds
	if seconds > l.max {
		l.max = seconds
	}
}

// latencySnapshot copies the latency summaries under the lock.
func (m *Metrics) latencySnapshot() map[string]latencySummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]latencySummary, len(m.latencies))
	for k, l := range m.latencies {
		out[k] = *l
	}
	return out
}

// snapshot copies a labelled counter family under the lock.
func (m *Metrics) snapshot(set map[string]*atomic.Int64) map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(set))
	for k, c := range set {
		out[k] = c.Load()
	}
	return out
}

// WriteTo renders the metrics in Prometheus text format. The extra
// gauges (cache size, database count) are supplied by the server, which
// owns those structures.
func (m *Metrics) WriteTo(w io.Writer, gauges map[string]float64) {
	writeFamily := func(name, help, typ string, vals map[string]int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{endpoint=%q} %d\n", name, k, vals[k])
		}
	}
	writeFamily("cdbserve_requests_total", "Requests received per endpoint.", "counter", m.snapshot(m.requests))
	writeFamily("cdbserve_errors_total", "Failed requests per endpoint.", "counter", m.snapshot(m.errors))

	// Per-kind, per-outcome cache events: the map keys are "kind|outcome".
	events := m.snapshot(m.cacheEvents)
	ekeys := make([]string, 0, len(events))
	for k := range events {
		ekeys = append(ekeys, k)
	}
	sort.Strings(ekeys)
	fmt.Fprintf(w, "# HELP cdbserve_cache_events_total Cache lookup outcomes per cache kind.\n# TYPE cdbserve_cache_events_total counter\n")
	for _, k := range ekeys {
		kind, outcome, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "cdbserve_cache_events_total{kind=%q,outcome=%q} %d\n", kind, outcome, events[k])
	}

	// Per-check, per-outcome audit verdicts: the map keys are
	// "check|outcome".
	audits := m.snapshot(m.auditEvents)
	akeys := make([]string, 0, len(audits))
	for k := range audits {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	fmt.Fprintf(w, "# HELP cdbserve_audit_total Background self-audit verdicts per check.\n# TYPE cdbserve_audit_total counter\n")
	for _, k := range akeys {
		check, outcome, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "cdbserve_audit_total{check=%q,outcome=%q} %d\n", check, outcome, audits[k])
	}

	// Cluster routing verdicts and admission sheds; the families appear
	// once cluster mode (or admission control) produced an event, so
	// single-node exposition is unchanged.
	if routes := m.snapshot(m.routeEvents); len(routes) > 0 {
		rkeys := make([]string, 0, len(routes))
		for k := range routes {
			rkeys = append(rkeys, k)
		}
		sort.Strings(rkeys)
		fmt.Fprintf(w, "# HELP cdbserve_cluster_route_total Routing verdicts per endpoint (local, forward, fallback_*, hop_limit).\n# TYPE cdbserve_cluster_route_total counter\n")
		for _, k := range rkeys {
			endpoint, decision, _ := strings.Cut(k, "|")
			fmt.Fprintf(w, "cdbserve_cluster_route_total{endpoint=%q,decision=%q} %d\n", endpoint, decision, routes[k])
		}
	}
	if sheds := m.snapshot(m.shedEvents); len(sheds) > 0 {
		skeys := make([]string, 0, len(sheds))
		for k := range sheds {
			skeys = append(skeys, k)
		}
		sort.Strings(skeys)
		fmt.Fprintf(w, "# HELP cdbserve_cluster_shed_total Requests shed by admission control per endpoint (capacity, quota).\n# TYPE cdbserve_cluster_shed_total counter\n")
		for _, k := range skeys {
			endpoint, reason, _ := strings.Cut(k, "|")
			fmt.Fprintf(w, "cdbserve_cluster_shed_total{endpoint=%q,reason=%q} %d\n", endpoint, reason, sheds[k])
		}
	}

	// Per-stage pipeline durations, a Prometheus histogram per stage.
	stages := m.stageSnapshot()
	skeys := make([]string, 0, len(stages))
	for k := range stages {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	fmt.Fprintf(w, "# HELP cdbserve_stage_duration_seconds Pipeline stage durations (plan, prepare, sample, eliminate, ...).\n# TYPE cdbserve_stage_duration_seconds histogram\n")
	for _, k := range skeys {
		h := stages[k]
		for i, ub := range stageBuckets {
			fmt.Fprintf(w, "cdbserve_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n", k, formatFloat(ub), h.buckets[i].Load())
		}
		fmt.Fprintf(w, "cdbserve_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", k, h.count.Load())
		fmt.Fprintf(w, "cdbserve_stage_duration_seconds_count{stage=%q} %d\n", k, h.count.Load())
		fmt.Fprintf(w, "cdbserve_stage_duration_seconds_sum{stage=%q} %g\n", k, float64(h.sumNano.Load())/1e9)
	}

	// Per-endpoint latency: a summary (count + sum, so rate(sum)/rate(count)
	// is the mean latency) plus a max gauge for outlier spotting.
	lat := m.latencySnapshot()
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# HELP cdbserve_request_duration_seconds Request latency per endpoint.\n# TYPE cdbserve_request_duration_seconds summary\n")
	for _, k := range keys {
		fmt.Fprintf(w, "cdbserve_request_duration_seconds_count{endpoint=%q} %d\n", k, lat[k].count)
		fmt.Fprintf(w, "cdbserve_request_duration_seconds_sum{endpoint=%q} %g\n", k, lat[k].sum)
	}
	fmt.Fprintf(w, "# HELP cdbserve_request_duration_seconds_max Worst observed request latency per endpoint.\n# TYPE cdbserve_request_duration_seconds_max gauge\n")
	for _, k := range keys {
		fmt.Fprintf(w, "cdbserve_request_duration_seconds_max{endpoint=%q} %g\n", k, lat[k].max)
	}

	scalar := func(name, help, typ string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	scalar("cdbserve_coalesced_requests_total", "Sample requests served by an identical in-flight draw.", "counter", float64(m.Coalesced.Load()))
	scalar("cdbserve_batch_jobs_total", "Jobs executed on the sampling worker pool.", "counter", float64(m.BatchJobs.Load()))
	scalar("cdbserve_samples_served_total", "Sample points returned across all responses.", "counter", float64(m.SamplesServed.Load()))
	scalar("cdbserve_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(m.start).Seconds())

	names := make([]string, 0, len(gauges))
	for k := range gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		scalar(k, "See cdbserve documentation.", "gauge", gauges[k])
	}
}
