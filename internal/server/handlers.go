package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/query"
	"repro/internal/runtime"
	sqldialect "repro/internal/sql"
	"repro/internal/walk"
)

// OptionsJSON is the wire form of cdb.Options. Zero/omitted fields keep
// the library defaults (hit-and-run walk, γ=0.2, ε=0.25, δ=0.1).
type OptionsJSON struct {
	Walk               string  `json:"walk,omitempty"` // "hit-and-run" (default), "grid", "ball"
	Gamma              float64 `json:"gamma,omitempty"`
	Eps                float64 `json:"eps,omitempty"`
	Delta              float64 `json:"delta,omitempty"`
	WalkSteps          int     `json:"walk_steps,omitempty"`
	RoundingIterations int     `json:"rounding_iterations,omitempty"`
	MaxPhaseSamples    int     `json:"max_phase_samples,omitempty"`
}

func (o *OptionsJSON) toOptions() (cdb.Options, error) {
	opts := cdb.DefaultOptions()
	if o == nil {
		return opts, nil
	}
	switch o.Walk {
	case "", "hit-and-run", "hitandrun":
		opts.Walk = walk.HitAndRun
	case "grid":
		opts.Walk = walk.GridWalk
	case "ball":
		opts.Walk = walk.BallWalk
	default:
		return opts, fmt.Errorf("unknown walk %q (want hit-and-run, grid or ball)", o.Walk)
	}
	if o.Gamma != 0 || o.Eps != 0 || o.Delta != 0 {
		p := core.DefaultParams()
		if o.Gamma != 0 {
			p.Gamma = o.Gamma
		}
		if o.Eps != 0 {
			p.Eps = o.Eps
		}
		if o.Delta != 0 {
			p.Delta = o.Delta
		}
		opts.Params = p
	}
	opts.WalkSteps = o.WalkSteps
	opts.RoundingIterations = o.RoundingIterations
	opts.MaxPhaseSamples = o.MaxPhaseSamples
	return opts, nil
}

type errorResponse struct {
	Error string `json:"error"`
	// OpPath locates the failing operator inside a /v1/expr tree, as a
	// path from the root: "expr", "expr.args[1]", "expr.args[0].args[1]".
	OpPath string `json:"op_path,omitempty"`
	// Line/Col are the 1-based position of a CDB-SQL parse or compile
	// error inside the statement text (POST /v1/sql).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
}

// errorBody renders err as the structured wire form: op-path errors
// (malformed /v1/expr trees) carry the failing operator's path, CDB-SQL
// errors carry the statement position.
func errorBody(err error) errorResponse {
	body := errorResponse{Error: err.Error()}
	var pe *opPathError
	var se *sqldialect.Error
	switch {
	case errors.As(err, &pe):
		body.Error = pe.err.Error()
		body.OpPath = pe.path
	case errors.As(err, &se):
		body.Line, body.Col = se.Line, se.Col
	}
	return body
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError maps library errors onto HTTP statuses: client mistakes are
// 400/404, relations outside the algorithms' preconditions are 422, and
// the probability-δ generator abort is 503. Definition 2.2 allows
// failure with probability δ, but responses are deterministic per
// request, so the documented client recovery is retrying with a
// *different* seed — replaying the identical request replays the abort.
// A cancelled request context (the client went away mid-walk) is not a
// server error: it maps to 499 (nginx's "client closed request") and
// stays out of the error metrics.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, status int, err error) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, statusClientClosedRequest, errorBody(err))
		return
	case errors.Is(err, errTargetNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errEmptySlice), errors.Is(err, runtime.ErrEmptyExpr),
		errors.Is(err, cdb.ErrNotWellBounded), errors.Is(err, cdb.ErrNotPolyRelated), errors.Is(err, cdb.ErrUnsupportedQuery):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, cdb.ErrGeneratorFailed):
		status = http.StatusServiceUnavailable
	}
	s.metrics.IncError(endpoint)
	writeJSON(w, status, errorBody(err))
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// cancelled the request before the response was produced.
const statusClientClosedRequest = 499

// --- POST /v1/databases -------------------------------------------------

type registerRequest struct {
	// Name is the optional database id; defaults to a content hash.
	Name string `json:"name,omitempty"`
	// Source is the constraint database program, e.g.
	// `rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };`.
	Source string `json:"source"`
}

type relationInfo struct {
	Name   string   `json:"name"`
	Vars   []string `json:"vars"`
	Tuples int      `json:"tuples"`
}

type queryInfo struct {
	Name string   `json:"name"`
	Vars []string `json:"vars"`
}

type databaseResponse struct {
	ID        string         `json:"id"`
	Name      string         `json:"name,omitempty"`
	Created   bool           `json:"created"`
	Relations []relationInfo `json:"relations"`
	Queries   []queryInfo    `json:"queries"`
}

func describeDatabase(e *runtime.DatabaseEntry, created bool) databaseResponse {
	resp := databaseResponse{
		ID:        e.ID,
		Name:      e.Name,
		Created:   created,
		Relations: []relationInfo{},
		Queries:   []queryInfo{},
	}
	for _, name := range e.DB.Names {
		rel := e.DB.Schema[name]
		resp.Relations = append(resp.Relations, relationInfo{Name: name, Vars: rel.Vars, Tuples: len(rel.Tuples)})
	}
	for _, q := range e.DB.Queries {
		resp.Queries = append(resp.Queries, queryInfo{Name: q.Name, Vars: q.Vars})
	}
	return resp
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if _, err := readJSON(w, r, int64(s.cfg.MaxSourceBytes), &req); err != nil {
		s.writeRejected(w, "databases", err)
		return
	}
	if req.Source == "" {
		s.writeError(w, "databases", http.StatusBadRequest, errors.New("missing source"))
		return
	}
	entry, created, err := s.rt.Registry().Register(req.Name, req.Source)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, runtime.ErrConflict):
			status = http.StatusConflict
		case errors.Is(err, runtime.ErrRegistryFull):
			status = http.StatusInsufficientStorage
		}
		s.writeError(w, "databases", status, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	if created {
		// Cluster mode: replicate the registration to every peer so each
		// node can resolve ids and compile plans for routing, whichever
		// node the client registered against. Content-hash idempotent, so
		// races and replays converge; no-op for single-node servers and
		// for registrations that arrived from a peer.
		if body, err := json.Marshal(req); err == nil {
			s.replicateRegistration(r, body)
		}
	}
	writeJSON(w, status, describeDatabase(entry, created))
}

func (s *Server) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	entries := s.rt.Registry().List()
	out := make([]databaseResponse, 0, len(entries))
	for _, e := range entries {
		out = append(out, describeDatabase(e, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"databases": out})
}

func (s *Server) handleGetDatabase(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.rt.Registry().Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, "databases", http.StatusNotFound, fmt.Errorf("database %q not registered", r.PathValue("id")))
		return
	}
	resp := describeDatabase(entry, false)
	writeJSON(w, http.StatusOK, map[string]any{
		"id": resp.ID, "name": resp.Name,
		"relations": resp.Relations, "queries": resp.Queries,
		"source": entry.Source,
	})
}

// --- name-addressed targets ---------------------------------------------

// errTargetNotFound marks a relation or query name absent from its
// database — a 404, like an unknown database id.
var errTargetNotFound = runtime.ErrTargetNotFound

// needsQueryEndpoint is the 400 guard of /v1/sample and /v1/volume:
// they serve plans with a prepared sampler — ∃ plans within the
// elimination budget included — and an ∃ plan past the budget (whose
// verdict the owner has now cached) is evaluated through POST /v1/query
// instead.
func needsQueryEndpoint(x *runtime.Exec) error {
	if _, err := x.Sampler(); errors.Is(err, runtime.ErrNeedsProjection) {
		return fmt.Errorf("%w; use POST /v1/query", err)
	}
	return nil
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// --- POST /v1/sample ----------------------------------------------------

type sampleRequest struct {
	Database string       `json:"database"`
	Relation string       `json:"relation,omitempty"`
	Query    string       `json:"query,omitempty"`
	N        int          `json:"n,omitempty"`       // default 1
	Workers  int          `json:"workers,omitempty"` // default Config.DefaultWorkers
	Seed     uint64       `json:"seed"`
	Options  *OptionsJSON `json:"options,omitempty"`
	// Stream selects NDJSON output: a meta line followed by one point
	// per line. Equivalent to Accept: application/x-ndjson.
	Stream bool `json:"stream,omitempty"`
	// Trace includes the request's span tree (per-stage durations and
	// counters) in the response.
	Trace bool `json:"trace,omitempty"`
}

type sampleResponse struct {
	Database  string       `json:"database"`
	Target    string       `json:"target"`
	N         int          `json:"n"`
	Workers   int          `json:"workers"`
	Seed      uint64       `json:"seed"`
	Cache     string       `json:"cache"` // "hit" or "miss"
	Coalesced bool         `json:"coalesced,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	TraceID   string       `json:"trace_id,omitempty"`
	Spans     *spanJSON    `json:"spans,omitempty"`
	Points    []cdb.Vector `json:"points,omitempty"`
}

func (s *Server) resolveSample(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req sampleRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	t, err := s.namedTarget(req.Database, req.Relation, req.Query, req.Options)
	if err != nil {
		return resolved{}, err
	}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveSample(w, r, &req, t) }}, nil
}

func (s *Server) serveSample(w http.ResponseWriter, r *http.Request, req *sampleRequest, t target) {
	n, err := s.sampleCount(req.N, 1)
	if err != nil {
		s.writeError(w, "sample", http.StatusBadRequest, err)
		return
	}
	workers := s.workersOr(req.Workers)
	start := time.Now()
	x, err := t.exec(s)
	if err == nil {
		err = needsQueryEndpoint(x)
	}
	if err != nil {
		s.writeError(w, "sample", http.StatusBadRequest, err)
		return
	}
	pts, coalesced, err := x.SampleN(r.Context(), n, workers, req.Seed)
	if err != nil {
		s.writeError(w, "sample", http.StatusInternalServerError, err)
		return
	}
	s.metrics.SamplesServed.Add(int64(len(pts)))
	resp := sampleResponse{
		Database:  t.entry.ID,
		Target:    firstNonEmpty(req.Relation, req.Query),
		N:         n,
		Workers:   workers,
		Seed:      req.Seed,
		Cache:     cacheLabel(x.Hit),
		Coalesced: coalesced,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		TraceID:   traceID(r.Context()),
		Spans:     traceSpans(r.Context(), req.Trace),
	}
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		streamPoints(w, resp, pts)
		return
	}
	resp.Points = pts
	writeJSON(w, http.StatusOK, resp)
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// streamPoints writes the NDJSON form: the response meta (without
// points) on the first line, then one JSON array per sample, flushing
// every flushEvery lines so clients consume points as they arrive.
func streamPoints(w http.ResponseWriter, meta any, pts []cdb.Vector) {
	const flushEvery = 256
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	for i, p := range pts {
		if err := enc.Encode(p); err != nil {
			return // client went away; stop serializing to a dead connection
		}
		if flusher != nil && (i+1)%flushEvery == 0 {
			flusher.Flush()
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// --- POST /v1/volume ----------------------------------------------------

type volumeRequest struct {
	Database string `json:"database"`
	Relation string `json:"relation,omitempty"`
	Query    string `json:"query,omitempty"`
	Seed     uint64 `json:"seed"`
	// MedianK > 1 returns the median of k independent preparations of
	// the target's canonical relation (core.MedianVolume's ln(1/δ)
	// confidence amplification); the default uses the warm prepared
	// estimate. A warm bind of a single-tuple relation returns its one
	// preparation-time estimate, so k binds would amplify nothing.
	MedianK int          `json:"median_k,omitempty"`
	Options *OptionsJSON `json:"options,omitempty"`
	// Trace includes the request's span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

type volumeResponse struct {
	Database  string    `json:"database"`
	Target    string    `json:"target"`
	Volume    float64   `json:"volume"`
	Method    string    `json:"method"` // "prepared" or "median"
	Cache     string    `json:"cache,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
	TraceID   string    `json:"trace_id,omitempty"`
	Spans     *spanJSON `json:"spans,omitempty"`
}

func (s *Server) resolveVolume(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req volumeRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	t, err := s.namedTarget(req.Database, req.Relation, req.Query, req.Options)
	if err != nil {
		return resolved{}, err
	}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveVolume(w, r, &req, t) }}, nil
}

func (s *Server) serveVolume(w http.ResponseWriter, r *http.Request, req *volumeRequest, t target) {
	if req.MedianK > s.cfg.MaxMedianK {
		s.writeError(w, "volume", http.StatusBadRequest,
			fmt.Errorf("median_k=%d exceeds the cap %d", req.MedianK, s.cfg.MaxMedianK))
		return
	}
	start := time.Now()
	resp := volumeResponse{Database: t.entry.ID, Target: firstNonEmpty(req.Relation, req.Query), TraceID: traceID(r.Context())}
	x, err := t.exec(s)
	if err == nil {
		err = needsQueryEndpoint(x)
	}
	if err != nil {
		s.writeError(w, "volume", http.StatusBadRequest, err)
		return
	}
	if req.MedianK > 1 {
		// k independent preparations of the canonical relation (see
		// volumeRequest.MedianK for why they are not warm binds), whose
		// walks abort when the client goes away. The guard above passed,
		// so an ∃ plan is within the elimination budget: its relation is
		// the elimination its warm entry was prepared from.
		relation := x.Plan.Relation
		if x.Plan.NeedsProjection() {
			relation = x.Plan.EvalSymbolic
		}
		rel, err := relation(resp.Target)
		if err == nil {
			opts := t.opts
			opts.Interrupt = r.Context().Err
			resp.Volume, err = core.MedianVolume(rel, req.MedianK, req.Seed, opts, s.rt.Fanout())
		}
		if err != nil {
			s.writeError(w, "volume", http.StatusInternalServerError, err)
			return
		}
		resp.Method = "median"
	} else {
		v, err := x.Volume(r.Context(), &req.Seed)
		if err != nil {
			s.writeError(w, "volume", http.StatusInternalServerError, err)
			return
		}
		resp.Volume, resp.Method, resp.Cache = v, "prepared", cacheLabel(x.Hit)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	resp.Spans = traceSpans(r.Context(), req.Trace)
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /v1/query -----------------------------------------------------

type queryRequest struct {
	Database string `json:"database"`
	Query    string `json:"query"`
	// Mode selects the evaluation: "volume" (default), "sample", "plan",
	// "symbolic" or "reconstruct".
	Mode    string       `json:"mode,omitempty"`
	N       int          `json:"n,omitempty"` // samples for sample/reconstruct (default 100)
	Seed    uint64       `json:"seed"`
	Options *OptionsJSON `json:"options,omitempty"`
}

type queryResponse struct {
	Database  string       `json:"database"`
	Query     string       `json:"query"`
	Mode      string       `json:"mode"`
	Volume    *float64     `json:"volume,omitempty"`
	Points    []cdb.Vector `json:"points,omitempty"`
	Plan      string       `json:"plan,omitempty"`
	Source    string       `json:"source,omitempty"`
	Hulls     []hullJSON   `json:"hulls,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

type hullJSON struct {
	Vertices []cdb.Vector `json:"vertices"`
}

// hullVertices extracts a hull's extreme points for the wire. Grid-walk
// samples repeat grid points, and Hull.Vertices drops a duplicated
// extreme entirely (each copy lies in the hull of the others), so the
// point set is deduplicated first; a fully degenerate hull falls back
// to its distinct points.
func hullVertices(h *cdb.Hull) []cdb.Vector {
	pts := geom.DedupPoints(h.Points, 1e-12)
	if v := geom.NewHull(pts).Vertices(); len(v) > 0 {
		return v
	}
	return pts
}

// resolveQuery resolves a named query to the key its evaluation caches
// under: the plan key /v1/sample resolves the same query to, or the
// symbolic key in symbolic mode, so one plan has one owner whichever
// endpoint asks for it.
func (s *Server) resolveQuery(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req queryRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	entry, opts, err := s.lookup(req.Database, req.Options)
	if err != nil {
		return resolved{}, err
	}
	if _, ok := entry.DB.Query(req.Query); !ok {
		return resolved{}, reject(http.StatusNotFound, fmt.Errorf("query %q not found in database %q", req.Query, entry.ID))
	}
	var t target
	if req.Mode == "symbolic" {
		sq, err := query.NewRel(req.Query).CompileSymbolic(entry.DB)
		if err != nil {
			return resolved{}, reject(http.StatusInternalServerError, err)
		}
		t = symbolicTarget(entry, sq)
	} else {
		cp, err := entry.Target("", req.Query)
		if err != nil {
			return resolved{}, reject(http.StatusInternalServerError, err)
		}
		t = planTarget(entry, opts, cp)
	}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, &req, t) }}, nil
}

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, req *queryRequest, t target) {
	n, err := s.sampleCount(req.N, 100)
	if err != nil {
		s.writeError(w, "query", http.StatusBadRequest, err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "volume"
	}
	start := time.Now()
	resp := queryResponse{Database: t.entry.ID, Query: req.Query, Mode: mode}
	switch mode {
	case "plan":
		// Plan inspection prepares no geometry, like /v1/expr's explain.
		resp.Plan = t.plan.Plan.Describe()
	case "symbolic":
		resp.Source, err = s.querySource(r.Context(), t, req.Query)
	case "volume", "sample", "reconstruct":
		err = s.queryExec(r.Context(), t, req, mode, n, &resp)
	default:
		s.writeError(w, "query", http.StatusBadRequest,
			fmt.Errorf("unknown mode %q (want volume, sample, plan, symbolic or reconstruct)", mode))
		return
	}
	if err != nil {
		s.writeError(w, "query", http.StatusInternalServerError, err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// queryExec runs a named query's sampling modes through the plan
// executor, as the name-addressed endpoints do: volume under the
// request seed like /v1/volume, sample on the default worker count like
// /v1/sample, and reconstruct like /v1/reconstruct.
func (s *Server) queryExec(ctx context.Context, t target, req *queryRequest, mode string, n int, resp *queryResponse) error {
	x, err := t.exec(s)
	if err != nil {
		return err
	}
	switch mode {
	case "volume":
		v, err := x.Volume(ctx, &req.Seed)
		if err != nil {
			return err
		}
		resp.Volume = &v
	case "sample":
		pts, _, err := x.SampleN(ctx, n, s.cfg.DefaultWorkers, req.Seed)
		if err != nil {
			return err
		}
		s.metrics.SamplesServed.Add(int64(len(pts)))
		resp.Points = pts
	default:
		est, err := x.Reconstruct(ctx, n, req.Seed)
		if err != nil {
			return err
		}
		for _, h := range est.Hulls {
			resp.Hulls = append(resp.Hulls, hullJSON{Vertices: hullVertices(h)})
		}
	}
	return nil
}

// querySource evaluates a named query through the prepared-symbolic
// cache, as /v1/expr's symbolic mode does, and renders the eliminated
// relation as a declaration named after the query.
func (s *Server) querySource(ctx context.Context, t target, name string) (string, error) {
	se, _, _, err := s.rt.Symbolic(ctx, t.entry, t.sym)
	if errors.Is(err, runtime.ErrEmptyExpr) {
		return (&constraint.Relation{Name: name, Vars: t.sym.OutVars}).Source(), nil
	}
	if err != nil {
		return "", err
	}
	rel := *se.Rel // the cached entry is shared: rename a copy
	rel.Name = name
	return rel.Source(), nil
}

// --- POST /v1/reconstruct -----------------------------------------------

type reconstructRequest struct {
	Database string       `json:"database"`
	Relation string       `json:"relation,omitempty"`
	Query    string       `json:"query,omitempty"`
	N        int          `json:"n,omitempty"` // samples per hull (default 200)
	Seed     uint64       `json:"seed"`
	Options  *OptionsJSON `json:"options,omitempty"`
}

type reconstructResponse struct {
	Database    string     `json:"database"`
	Target      string     `json:"target"`
	N           int        `json:"n"`
	Seed        uint64     `json:"seed"`
	Cache       string     `json:"cache,omitempty"`
	Dim         int        `json:"dim"`
	Hulls       []hullJSON `json:"hulls"`
	VertexCount int        `json:"vertex_count"`
	ElapsedMS   float64    `json:"elapsed_ms"`
}

func (s *Server) resolveReconstruct(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req reconstructRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	t, err := s.namedTarget(req.Database, req.Relation, req.Query, req.Options)
	if err != nil {
		return resolved{}, err
	}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveReconstruct(w, r, &req, t) }}, nil
}

func (s *Server) serveReconstruct(w http.ResponseWriter, r *http.Request, req *reconstructRequest, t target) {
	n, err := s.sampleCount(req.N, 200)
	if err != nil {
		s.writeError(w, "reconstruct", http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	resp := reconstructResponse{Database: t.entry.ID, Target: firstNonEmpty(req.Relation, req.Query), N: n, Seed: req.Seed}

	x, err := t.exec(s)
	if err != nil {
		s.writeError(w, "reconstruct", http.StatusBadRequest, err)
		return
	}
	est, err := x.Reconstruct(r.Context(), n, req.Seed)
	if err != nil {
		s.writeError(w, "reconstruct", http.StatusInternalServerError, err)
		return
	}
	resp.Cache = cacheLabel(x.Hit)
	resp.Dim = est.Dim()
	for _, h := range est.Hulls {
		verts := hullVertices(h)
		resp.Hulls = append(resp.Hulls, hullJSON{Vertices: verts})
		resp.VertexCount += len(verts)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// --- GET/POST /v1/audit --------------------------------------------------

// auditStatusResponse is the GET /v1/audit body: the auditor's lifetime
// counters (including currently flagged keys) plus the per-sampler
// quality reports.
type auditStatusResponse struct {
	Audit   runtime.AuditStats `json:"audit"`
	Reports []quality.Report   `json:"reports"`
}

func (s *Server) handleAuditStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, auditStatusResponse{
		Audit:   s.rt.Auditor().Stats(),
		Reports: s.rt.Quality().Reports(),
	})
}

// auditRunResponse is the POST /v1/audit body: the verdicts of one
// on-demand audit sweep over every registered warm entry, sorted by
// key, plus the updated counters.
type auditRunResponse struct {
	Events []obs.AuditEvent   `json:"events"`
	Audit  runtime.AuditStats `json:"audit"`
}

func (s *Server) handleAuditRun(w http.ResponseWriter, r *http.Request) {
	events, err := s.rt.Auditor().RunOnce(r.Context())
	if err != nil {
		s.writeError(w, "audit", http.StatusInternalServerError, err)
		return
	}
	if events == nil {
		events = []obs.AuditEvent{}
	}
	writeJSON(w, http.StatusOK, auditRunResponse{
		Events: events,
		Audit:  s.rt.Auditor().Stats(),
	})
}

// --- GET /metrics, /healthz ---------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, map[string]float64{
		"cdbserve_databases":          float64(s.rt.Registry().Len()),
		"cdbserve_sampler_cache_size": float64(s.rt.Cache().Len()),
		"cdbserve_pool_workers":       float64(s.rt.Pool().Size()),
		"cdbserve_audit_flagged":      float64(len(s.rt.Quality().Flagged())),
	})
	s.writeClusterMetrics(w)
}

// healthzResponse keeps "status" as its first field: legacy clients
// decode the body into map[string]string and stop at the first
// non-string value, so the one field they understand must come first.
type healthzResponse struct {
	Status  string         `json:"status"` // "ok", "draining" or "degraded"
	Ready   bool           `json:"ready"`
	Cluster *clusterStatus `json:"cluster,omitempty"`
}

// handleHealthz is both liveness and readiness: 200 while the node
// accepts work; 503 with ready=false while draining (SIGTERM received)
// or degraded (every peer breaker open — the node is partitioned from
// the whole cluster and serves everything from local compute). The
// ring membership is static, so "membership settled" holds from the
// moment the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok", Ready: true}
	if s.cfg.Cluster.Enabled() {
		cs := s.clusterStatusNow()
		resp.Cluster = &cs
	}
	switch {
	case s.draining.Load():
		resp.Status, resp.Ready = "draining", false
	case s.cfg.Cluster.Enabled() && s.health.AllOpen():
		resp.Status, resp.Ready = "degraded", false
	}
	if !resp.Ready {
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
