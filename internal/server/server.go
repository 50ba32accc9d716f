// Package server implements cdbserve, the HTTP sampling service over the
// constraint-database library: clients register constraint database
// programs, then draw almost-uniform samples, volume estimates, query
// evaluations and shape reconstructions over HTTP.
//
// The paper's observation is that uniform generation makes constraint
// query evaluation a cheap, repeatable online operation; this package is
// the HTTP adapter that serves it. All of the heavy lifting — the
// registry of parsed databases, the singleflight LRU of prepared
// samplers (including negative entries for empty time slices and the
// prepared-alibi cache) and the bounded worker pool with request
// coalescing — lives in the shared internal/runtime package, the same
// runtime behind the cdb.DB handle. Each data-plane endpoint here is a
// resolve step, which decodes the request and compiles it to the cache
// key it names (cluster mode routes on that key), and a serving half,
// which calls into the runtime with the request's context (cancelled
// clients abort their walks mid-epoch) and encodes the response plus
// metrics.
//
// Sampling is deterministic per request: the preparation seed is derived
// from the sampler's cache key and the response depends only on
// (database, relation, options, n, workers, seed).
package server

import (
	"encoding/json"
	"expvar"
	"log"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Config tunes the server. The zero value picks sensible defaults.
type Config struct {
	// PoolSize is the sampling worker pool size (default GOMAXPROCS); it
	// also bounds how many preparation units run in parallel.
	PoolSize int
	// CacheSize caps the prepared-sampler LRU (default 64).
	CacheSize int
	// DefaultWorkers is the per-request logical worker count when the
	// request does not specify one (default min(4, PoolSize)).
	DefaultWorkers int
	// MaxSamples caps n for a single sample request (default 1e6).
	MaxSamples int
	// MaxSourceBytes caps the program size accepted by POST /v1/databases
	// (default 1 MiB).
	MaxSourceBytes int
	// MaxMedianK caps the median_k amplification factor of /v1/volume
	// and /v1/spacetime/alibi — each of the k runs pays a full
	// preparation, on the runtime's PoolSize-wide preparation fan-out
	// (default 64).
	MaxMedianK int
	// MaxDatabases caps the registry size (default 1024).
	MaxDatabases int
	// SlowQuery, when positive, logs any request slower than this
	// threshold with its trace id and per-stage span summary.
	SlowQuery time.Duration
	// AuditInterval, when positive, starts the background quality
	// auditor at that sweep interval: warm cache entries are
	// periodically re-drawn and cross-checked against exact symbolic
	// volumes, with verdicts on /metrics (cdbserve_audit_total), the
	// /v1/audit endpoint and /debug/quality. Zero leaves the background
	// loop off; POST /v1/audit still audits on demand.
	AuditInterval time.Duration
	// Logger receives slow-query lines (default log.Default()).
	Logger *log.Logger
	// Cluster configures multi-node mode: consistent-hash routing of
	// prepared-cache keys across Cluster.Peers with transparent
	// forwarding. The zero value (no peers) is single-node operation
	// with zero routing overhead. The config must pass
	// Cluster.Validate(); cmd/cdbserve validates before construction.
	Cluster cluster.Config
	// Admission configures admission control (bounded in-flight budget,
	// per-tenant token buckets). The zero value admits everything.
	Admission cluster.AdmissionConfig
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.MaxDatabases <= 0 {
		// The server's historical contract: non-positive means the 1024
		// default, never the runtime's "negative = unbounded" escape.
		c.MaxDatabases = 1024
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1_000_000
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxMedianK <= 0 {
		c.MaxMedianK = 64
	}
	return c
}

// Server wires the shared sampling runtime and metrics behind an
// http.Handler. It owns no registry, cache or pool of its own — those
// live in internal/runtime.
type Server struct {
	cfg     Config
	rt      *runtime.Runtime
	metrics *Metrics

	// Cluster mode (all set even when disabled; the Local router and a
	// peerless Health make the single-node path branch-free).
	router    cluster.Router
	health    *cluster.Health
	gate      *cluster.Gate
	warm      *cluster.KeySet
	admission *cluster.Admission // nil when admission is not configured
	fwd       *http.Client       // peer forwarding + health probes
	draining  atomic.Bool
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cfg.Cluster = cfg.Cluster.WithDefaults()
	m := NewMetrics()
	rt := runtime.NewWithSink(runtime.Config{
		PoolSize:     cfg.PoolSize,
		CacheSize:    cfg.CacheSize,
		MaxDatabases: cfg.MaxDatabases,
	}, m)
	if cfg.DefaultWorkers <= 0 {
		cfg.DefaultWorkers = min(4, rt.Pool().Size())
	}
	if cfg.AuditInterval > 0 {
		rt.Auditor().Configure(runtime.AuditConfig{Interval: cfg.AuditInterval})
		rt.Auditor().Start()
	}
	s := &Server{
		cfg:     cfg,
		rt:      rt,
		metrics: m,
		router:  cluster.NewRouter(cfg.Cluster),
		health:  cluster.NewHealth(cfg.Cluster.Peers, cfg.Cluster.Breaker),
		gate:    cluster.NewGate(),
		warm:    cluster.NewKeySet(4096),
		fwd:     &http.Client{Timeout: cfg.Cluster.ForwardTimeout},
	}
	if cfg.Admission.Enabled() {
		s.admission = cluster.NewAdmission(cfg.Admission)
	}
	if cfg.Cluster.Enabled() && cfg.Cluster.ProbeInterval > 0 {
		s.health.StartProber(s.fwd, "/healthz", cfg.Cluster.ProbeInterval)
	}
	return s
}

// Close stops the worker pool and the peer health prober.
func (s *Server) Close() {
	s.health.StopProber()
	s.rt.Close()
}

// BeginDrain flips the server into draining: /healthz turns not-ready
// (so load balancers stop sending new work) and the background prober
// stops. In-flight local and forwarded requests keep their contexts and
// finish normally — the actual connection drain is http.Server.Shutdown
// in cmd/cdbserve, bounded by -drain-timeout.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.health.StopProber()
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Registry exposes the database registry (used by cmd/cdbserve to
// preload programs at boot).
func (s *Server) Registry() *runtime.Registry { return s.rt.Registry() }

// Runtime exposes the shared sampling runtime.
func (s *Server) Runtime() *runtime.Runtime { return s.rt }

// Handler returns the routed HTTP handler. Every endpoint is wrapped by
// instrument, which owns the per-endpoint request count and latency
// metrics — handlers themselves only report errors.
func (s *Server) Handler() http.Handler {
	// Data-plane endpoints stack instrument → admission → resolve,
	// routing and serving: a shed request is counted but never read
	// past its headers; a forwarded request is resolved but never
	// touches the local prepared caches. With no cluster peers there is
	// no routing step, and with no admission config no admission layer.
	routed := func(endpoint string, resolve resolveFunc) http.HandlerFunc {
		return s.instrument(endpoint, s.admitted(endpoint, s.routed(endpoint, resolve)))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/databases", s.instrument("databases", s.admitted("databases", s.handleRegister)))
	mux.HandleFunc("GET /v1/databases", s.instrument("databases", s.handleListDatabases))
	mux.HandleFunc("GET /v1/databases/{id}", s.instrument("databases", s.handleGetDatabase))
	mux.HandleFunc("POST /v1/sample", routed("sample", s.resolveSample))
	mux.HandleFunc("POST /v1/volume", routed("volume", s.resolveVolume))
	mux.HandleFunc("POST /v1/query", routed("query", s.resolveQuery))
	mux.HandleFunc("POST /v1/expr", routed("expr", s.resolveExpr))
	mux.HandleFunc("POST /v1/sql", routed("sql", s.resolveSQL))
	mux.HandleFunc("POST /v1/reconstruct", routed("reconstruct", s.resolveReconstruct))
	mux.HandleFunc("POST /v1/spacetime/slice", routed("spacetime_slice", s.resolveSpacetimeSlice))
	mux.HandleFunc("POST /v1/spacetime/sample", routed("spacetime_sample", s.resolveSpacetimeSample))
	mux.HandleFunc("POST /v1/spacetime/alibi", routed("spacetime_alibi", s.resolveSpacetimeAlibi))
	mux.HandleFunc("GET /v1/audit", s.instrument("audit", s.handleAuditStatus))
	mux.HandleFunc("POST /v1/audit", s.instrument("audit", s.handleAuditRun))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	return mux
}

// instrument counts the request, roots a trace span on its context
// (so every pipeline stage below attaches to it), records its
// wall-clock latency and the per-stage durations, and logs slow
// queries with their trace id and span summary.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.IncRequest(endpoint)
		ctx, root := obs.NewTrace(r.Context(), endpoint)
		w.Header().Set("X-Trace-Id", root.TraceID())
		start := time.Now()
		h(w, r.WithContext(ctx))
		elapsed := time.Since(start)
		root.End()
		s.metrics.ObserveLatency(endpoint, elapsed.Seconds())
		for _, c := range root.StageNanos() {
			if c.Name == endpoint {
				continue // the root span itself is the request latency
			}
			s.metrics.ObserveStage(c.Name, float64(c.Value)/1e9)
		}
		if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
			s.cfg.Logger.Printf("slow query: endpoint=%s elapsed=%v trace=%s\n%s",
				endpoint, elapsed, root.TraceID(), root.String())
		}
	}
}

// DebugHandler returns the operator-only debug mux: net/http/pprof
// profiles, expvar counters and a JSON dump of the runtime's observed
// per-sampler cost table under /debug/costs.
//
// The handler is UNAUTHENTICATED and can expose memory contents
// through heap profiles — serve it on a loopback- or VPN-bound
// listener (cdbserve -debug-addr), never on the public address.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/costs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.rt.Costs().Each())
	})
	mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.clusterStatusNow())
	})
	mux.HandleFunc("/debug/quality", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Reports() is sorted by key, so the dump is deterministic for a
		// fixed workload, like /debug/costs.
		_ = enc.Encode(map[string]any{
			"audit":   s.rt.Auditor().Stats(),
			"reports": s.rt.Quality().Reports(),
		})
	})
	return mux
}
