// Command cdbserve runs the constraint-database sampling service: a
// thin HTTP adapter over the shared sampling runtime (the same
// registry, prepared-sampler cache and bounded worker pool behind the
// cdb.DB handle).
//
// Usage:
//
//	cdbserve [-addr :8080] [-pool 8] [-cache 64] [db.cdb ...]
//
// Trailing file arguments are preloaded programs, registered under
// their file base names (without extension). See README.md for the API
// reference and a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cdbserve: ")
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		pool    = flag.Int("pool", 0, "sampling worker pool size, and the bound on parallel preparation units (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 64, "prepared-sampler cache capacity")
		workers = flag.Int("workers", 0, "default logical workers per sample request (0 = min(4, pool))")
		maxN    = flag.Int("max-samples", 0, "per-request sample cap (0 = 1e6)")
		// Large NDJSON streams and long-polling dashboards need tunable
		// write/idle deadlines; 0 keeps Go's no-timeout default.
		writeTimeout  = flag.Duration("write-timeout", 0, "max duration for writing a response (0 = unlimited)")
		idleTimeout   = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout (0 = unlimited)")
		slowQuery     = flag.Duration("slow-query", 0, "log requests slower than this with their trace id and span summary (0 = disabled)")
		auditInterval = flag.Duration("audit-interval", 0, "background quality-audit sweep interval: warm samplers are re-drawn and cross-checked against exact symbolic volumes (0 = disabled; POST /v1/audit still audits on demand)")
		// The debug listener serves pprof heap/CPU profiles and the raw
		// cost tables: unauthenticated by design, so it binds separately —
		// keep it on loopback or an ops-only network, never the public
		// address.
		debugAddr = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars, /debug/costs, /debug/quality and /debug/cluster on this UNAUTHENTICATED ops-only address (e.g. localhost:6060; empty = disabled)")
		// Cluster mode: static membership over which a consistent-hash
		// ring routes every prepared-cache key to exactly one owner node;
		// non-owners transparently forward. Flags override the config
		// file's corresponding fields.
		clusterSelf    = flag.String("cluster-self", "", "this node's advertised base URL in cluster mode (e.g. http://10.0.0.1:8080)")
		clusterPeers   = flag.String("cluster-peers", "", "comma-separated peer base URLs; empty = single-node mode")
		clusterConfig  = flag.String("cluster-config", "", "JSON membership file {\"self\":..., \"peers\":[...], \"vnodes\":..., \"max_hops\":...}; flags override its fields")
		clusterVNodes  = flag.Int("cluster-vnodes", 0, "virtual nodes per member on the hash ring (0 = 64)")
		forwardTimeout = flag.Duration("forward-timeout", 0, "per-request timeout when forwarding to a peer (0 = 30s)")
		probeInterval  = flag.Duration("probe-interval", 5*time.Second, "background peer health-probe interval (0 = breakers driven by forwarding outcomes only)")
		drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight (local and forwarded) requests on SIGTERM")
		// Admission control: shed excess load with 429 + Retry-After
		// instead of queueing unboundedly.
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing data-plane requests (0 = unlimited)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant sustained request rate in req/s, keyed by the X-CDB-Tenant header (0 = no quotas)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant burst capacity (0 = ceil(tenant-rate))")
	)
	flag.Parse()

	clusterCfg, err := buildClusterConfig(*clusterConfig, *clusterSelf, *clusterPeers, *clusterVNodes, *forwardTimeout, *probeInterval)
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(server.Config{
		PoolSize:       *pool,
		CacheSize:      *cache,
		DefaultWorkers: *workers,
		MaxSamples:     *maxN,
		SlowQuery:      *slowQuery,
		AuditInterval:  *auditInterval,
		Cluster:        clusterCfg,
		Admission: cluster.AdmissionConfig{
			MaxInFlight: *maxInFlight,
			TenantRate:  *tenantRate,
			TenantBurst: *tenantBurst,
		},
	})
	defer srv.Close()
	if clusterCfg.Enabled() {
		log.Printf("cluster mode: self=%s peers=%s", clusterCfg.Self, strings.Join(clusterCfg.Peers, ","))
	}

	for _, path := range flag.Args() {
		preload(srv, path)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	go func() {
		log.Printf("listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("debug listener on %s (unauthenticated: pprof, expvar, cost tables)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Graceful drain: flip readiness first (load balancers and peers see
	// not-ready and stop sending), then let http.Server.Shutdown wait for
	// in-flight requests — local computations and forwarded exchanges
	// alike, since the forwarding client propagates request contexts —
	// up to -drain-timeout.
	log.Printf("draining (timeout %v)", *drainTimeout)
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			log.Printf("debug shutdown: %v", err)
		}
	}
}

// buildClusterConfig merges the -cluster-config file (if any) with the
// cluster flags (flags win), applies the tunables and validates the
// result.
func buildClusterConfig(path, self, peers string, vnodes int, forwardTimeout, probeInterval time.Duration) (cluster.Config, error) {
	var cfg cluster.Config
	if path != "" {
		var err error
		cfg, err = cluster.LoadConfig(path)
		if err != nil {
			return cluster.Config{}, err
		}
	}
	if self != "" {
		cfg.Self = self
	}
	if p := cluster.ParsePeers(peers); len(p) > 0 {
		cfg.Peers = p
	}
	if vnodes > 0 {
		cfg.VNodes = vnodes
	}
	cfg.ForwardTimeout = forwardTimeout
	if cfg.Enabled() {
		cfg.ProbeInterval = probeInterval
	}
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, err
	}
	return cfg, nil
}

// preload registers a program file under its base name.
func preload(srv *server.Server, path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("preload %s: %v", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	entry, _, err := srv.Registry().Register(name, string(src))
	if err != nil {
		log.Fatalf("preload %s: %v", path, err)
	}
	log.Printf("preloaded database %q (%d relations, %d queries)",
		entry.ID, len(entry.DB.Names), len(entry.DB.Queries))
}
