package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Cluster mode routes every prepared-cache key to exactly one owner
// node: a consistent-hash ring over the static membership decides who
// prepares (and keeps warm) each (database, target, options) key, and
// non-owner nodes transparently proxy /v1/* requests to the owner.
// Routing shares each endpoint's resolve step with its serving half
// (see resolve.go): routed resolves a request once, hashes the cache
// key resolve names and either forwards the body to the owner or hands
// the resolved request to the serving half, so no node decodes or
// compiles a request twice. The Local (no peers) configuration runs the
// same resolve-then-serve path with no routing step, byte-identical to
// the pre-cluster server.
//
// Resilience: each peer has a circuit breaker (fed by forwarding
// outcomes and an optional background prober); a request whose owner is
// unreachable is computed locally instead — the cluster degrades to
// duplicated work, never to unavailability. Cold keys crossing the
// forwarding path are gated through a keyed singleflight latch so a
// stampede costs the owner one preparation.

const (
	// headerForwarded counts forwarding hops; its presence marks a
	// peer-originated request (loop guard, quota exemption).
	headerForwarded = "X-CDB-Forwarded"
	// headerOwner carries the routing verdict: set on forwarded requests
	// and echoed on proxied responses so clients (and tests) can see
	// which node actually served.
	headerOwner = "X-CDB-Owner"
	// headerTenant identifies the quota bucket of per-tenant admission
	// control; absent, the request charges the anonymous bucket.
	headerTenant = "X-CDB-Tenant"
)

// --- middleware ----------------------------------------------------------

// admitted applies admission control in front of h: the bounded
// in-flight budget and (for ingress requests) the tenant's token
// bucket. Shed requests get 429 + Retry-After and never reach the
// routing or handler layers. A nil controller (admission not
// configured) compiles down to h itself.
func (s *Server) admitted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.admission == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, retryAfter, err := s.admission.Admit(r.Header.Get(headerTenant), r.Header.Get(headerForwarded) != "")
		if err != nil {
			reason := "capacity"
			if errors.Is(err, cluster.ErrQuotaExceeded) {
				reason = "quota"
			}
			s.metrics.IncShed(endpoint, reason)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
			return
		}
		defer release()
		h(w, r)
	}
}

// routed runs the endpoint's resolve step once and routes on the key it
// names: a request this node owns runs its serving half here, anything
// else forwards to the owner, falling back to the local serving half
// when the hop limit is reached, the owner's breaker is open or the
// forward fails in transport. A request resolve refuses is answered
// here with its error, the same answer every node gives. With the Local
// router there is no routing step: the single-node server resolves and
// serves.
func (s *Server) routed(endpoint string, resolve resolveFunc) http.HandlerFunc {
	_, single := s.router.(cluster.Local)
	return func(w http.ResponseWriter, r *http.Request) {
		_, span := obs.Start(r.Context(), "resolve")
		req, err := resolve(w, r)
		span.SetKey(req.key)
		span.End()
		switch {
		case err != nil:
			if !single {
				s.metrics.IncRoute(endpoint, "local")
			}
			s.writeRejected(w, endpoint, err)
			return
		case single:
			req.serve(w, r)
			return
		}
		owner, local := s.router.Route(req.key)
		if local {
			s.metrics.IncRoute(endpoint, "local")
			req.serve(w, r)
			return
		}
		if hops := forwardedHops(r); hops >= s.cfg.Cluster.MaxHops {
			// A chain this long means the membership views disagree; break
			// the loop by serving locally (duplicated warmth beats a cycle).
			s.metrics.IncRoute(endpoint, "hop_limit")
			req.serve(w, r)
			return
		}
		br := s.health.Breaker(owner)
		if !br.Allow() {
			s.metrics.IncRoute(endpoint, "fallback_breaker")
			req.serve(w, r)
			return
		}
		if ok := s.forward(w, r, endpoint, owner, req.key, req.body, br); !ok {
			// Transport failure: the breaker heard about it; serve locally
			// so the client never sees the dead peer.
			s.metrics.IncRoute(endpoint, "fallback_error")
			req.serve(w, r)
		}
	}
}

// forwardedHops counts the nodes a request already crossed.
func forwardedHops(r *http.Request) int {
	v := r.Header.Get(headerForwarded)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		// An unparsable marker still proves at least one hop.
		return 1
	}
	return n
}

// forward proxies the request to the owner node. It reports false on
// transport-level failure (the caller then falls back to the local
// serving half); HTTP-level errors from the owner are proxied verbatim —
// the owner answering 4xx/5xx is routing working, not failing.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, endpoint, owner, key string, body []byte, br *cluster.Breaker) bool {
	ctx := r.Context()
	// Gate the first exchange per key: a cold-key stampede from this node
	// costs the owner one preparation, not one per caller. Warm keys skip
	// the latch entirely and forward with full concurrency.
	if !s.warm.Has(key) {
		leader, err := s.gate.Enter(ctx, key)
		if err != nil {
			br.Success() // the client died, not the peer
			writeJSON(w, statusClientClosedRequest, errorResponse{Error: err.Error()})
			return true
		}
		if leader {
			defer s.gate.Leave(key)
		}
	}

	req, err := http.NewRequestWithContext(ctx, r.Method, owner+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		br.Fail()
		return false
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	if tenant := r.Header.Get(headerTenant); tenant != "" {
		req.Header.Set(headerTenant, tenant)
	}
	req.Header.Set(headerForwarded, strconv.Itoa(forwardedHops(r)+1))
	req.Header.Set(headerOwner, owner)

	resp, err := s.fwd.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client hung up mid-forward; the peer is not to blame.
			br.Success()
			writeJSON(w, statusClientClosedRequest, errorResponse{Error: ctx.Err().Error()})
			return true
		}
		br.Fail()
		return false
	}
	defer resp.Body.Close()
	br.Success()
	s.warm.Add(key)
	s.metrics.IncRoute(endpoint, "forward")

	for _, name := range []string{"Content-Type", "X-Trace-Id", "Retry-After"} {
		if v := resp.Header.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.Header().Set(headerOwner, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// replicateRegistration fans a successful database registration out to
// every peer, so each node can resolve ids and compile plans for
// routing whatever node the client happened to register against.
// Registration is content-hash idempotent, so replays and races
// converge; best-effort — an unreachable peer (breaker-gated) learns
// the database when a registration or preload reaches it later.
func (s *Server) replicateRegistration(r *http.Request, body []byte) {
	if _, isLocal := s.router.(cluster.Local); isLocal || r.Header.Get(headerForwarded) != "" {
		return
	}
	for _, peer := range s.router.Nodes() {
		if peer == s.router.Self() {
			continue
		}
		br := s.health.Breaker(peer)
		if !br.Allow() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, peer+"/v1/databases", bytes.NewReader(body))
		if err != nil {
			br.Fail()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(headerForwarded, "1")
		resp, err := s.fwd.Do(req)
		if err != nil {
			br.Fail()
			continue
		}
		resp.Body.Close()
		br.Success()
	}
}

// --- introspection -------------------------------------------------------

// clusterStatus is the /debug/cluster (and /healthz "cluster" field)
// document.
type clusterStatus struct {
	Enabled      bool                 `json:"enabled"`
	Self         string               `json:"self,omitempty"`
	Nodes        []string             `json:"nodes,omitempty"`
	VNodes       map[string]int       `json:"vnodes,omitempty"`
	Breakers     map[string]string    `json:"breakers,omitempty"`
	OpenBreakers int                  `json:"open_breakers"`
	Draining     bool                 `json:"draining"`
	WarmKeys     int                  `json:"warm_keys"`
	InFlight     int                  `json:"in_flight"`
	Quotas       []cluster.QuotaState `json:"quotas,omitempty"`
}

func (s *Server) clusterStatusNow() clusterStatus {
	st := clusterStatus{
		Enabled:  s.cfg.Cluster.Enabled(),
		Self:     s.router.Self(),
		Nodes:    s.router.Nodes(),
		Draining: s.draining.Load(),
		WarmKeys: s.rt.Cache().Len(),
	}
	if ring, ok := cluster.RingOf(s.router); ok {
		st.VNodes = ring.Layout()
	}
	if s.health != nil {
		st.Breakers = s.health.States()
		st.OpenBreakers = s.health.OpenCount()
	}
	if s.admission != nil {
		st.InFlight = s.admission.InFlight()
		st.Quotas = s.admission.Quotas()
	}
	return st
}

// writeClusterMetrics renders the cluster gauge families Prometheus
// text after Metrics.WriteTo (breaker states carry a peer label, which
// the scalar gauge map cannot express).
func (s *Server) writeClusterMetrics(w io.Writer) {
	if !s.cfg.Cluster.Enabled() {
		return
	}
	states := s.health.States()
	peers := make([]string, 0, len(states))
	for p := range states {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	fmt.Fprintf(w, "# HELP cdbserve_cluster_breaker_open Whether the peer's circuit breaker is open (1 = open).\n# TYPE cdbserve_cluster_breaker_open gauge\n")
	for _, p := range peers {
		open := 0
		if states[p] == "open" {
			open = 1
		}
		fmt.Fprintf(w, "cdbserve_cluster_breaker_open{peer=%q} %d\n", p, open)
	}
	fmt.Fprintf(w, "# HELP cdbserve_cluster_peers Cluster membership size (including this node).\n# TYPE cdbserve_cluster_peers gauge\ncdbserve_cluster_peers %d\n", len(s.router.Nodes()))
	inFlight := 0
	if s.admission != nil {
		inFlight = s.admission.InFlight()
	}
	fmt.Fprintf(w, "# HELP cdbserve_cluster_inflight Currently admitted in-flight requests.\n# TYPE cdbserve_cluster_inflight gauge\ncdbserve_cluster_inflight %d\n", inFlight)
}

// retryAfterSeconds renders a Retry-After duration as whole seconds
// (minimum 1 — a 0 would tell clients to hammer immediately).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
