package server

// POST /v1/sql: the CDB-SQL endpoint. The request body is one plain-text
// CDB-SQL statement — pasteable from cdbsql or a file, no JSON envelope
// — and the database id rides in the ?database= query parameter. The
// statement compiles onto the same algebra IR as /v1/expr, so the SQL
// text and the structurally equal JSON tree report one canonical key
// and warm one cache entry; the execution mode is inferred from the
// statement itself (SAMPLE → sample, VOLUME(*) → volume, EXPLAIN
// [SYMBOLIC] → explain, bare SELECT → relation via symbolic
// evaluation). Parse and compile errors come back as structured
// {error, line, col} bodies.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	cdb "repro"
	"repro/internal/query"
	"repro/internal/runtime"
	sqldialect "repro/internal/sql"
)

// maxSQLBytes bounds one statement body.
const maxSQLBytes = 1 << 16

// sqlResponse is the /v1/expr response shape plus the statement's
// canonical rendering (so clients see exactly what was executed) and,
// for EXPLAIN SYMBOLIC, the runtime symbolic cache key.
type sqlResponse struct {
	exprResponse
	Statement   string `json:"statement"`
	SymbolicKey string `json:"symbolic_key,omitempty"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSQLBytes))
	if err != nil {
		s.writeError(w, "sql", http.StatusBadRequest, fmt.Errorf("read statement: %w", err))
		return
	}
	q := r.URL.Query()
	entry, ok := s.rt.Registry().Get(q.Get("database"))
	if !ok {
		s.writeError(w, "sql", http.StatusNotFound, fmt.Errorf("database %q not registered (pass ?database=)", q.Get("database")))
		return
	}
	c, err := sqldialect.Compile(entry.DB, string(body))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, query.ErrUnknownTarget) {
			status = http.StatusNotFound
		}
		s.writeError(w, "sql", status, err)
		return
	}
	trace := false
	if v := q.Get("trace"); v != "" {
		trace, _ = strconv.ParseBool(v)
	}
	workers := 0
	if v := q.Get("workers"); v != "" {
		workers, err = strconv.Atoi(v)
		if err != nil || workers < 0 {
			s.writeError(w, "sql", http.StatusBadRequest, fmt.Errorf("bad workers %q", v))
			return
		}
	}
	// Statements carry no sampler options: every SQL request shares the
	// DefaultOptions cache entries — the same fingerprint optionless
	// /v1/expr requests and the cdb facade use.
	opts := cdb.DefaultOptions()

	start := time.Now()
	resp := sqlResponse{
		exprResponse: exprResponse{Database: entry.ID, Mode: string(c.Mode), TraceID: traceID(r.Context())},
		Statement:    c.Source,
	}

	switch {
	case c.Mode == sqldialect.ModeRelation:
		// Bare SELECT: derive the quantifier-free relation symbolically —
		// the only evaluation that returns the set itself.
		sq, err := c.Node.CompileSymbolic(entry.DB)
		if err != nil {
			s.writeError(w, "sql", http.StatusUnprocessableEntity, err)
			return
		}
		if !s.execSymbolic(w, r, "sql", entry, sq, &resp.exprResponse) {
			return
		}
	case c.Mode == sqldialect.ModeExplain && c.ExplainSymbolic:
		if !s.sqlExplainSymbolic(w, entry, c.Node, &resp) {
			return
		}
	default:
		plan, err := c.Node.Compile(entry.DB)
		if err != nil {
			if errors.Is(err, cdb.ErrUnsupportedQuery) {
				// Full first-order statement outside the sampling fragment:
				// VOLUME(*) still has an exact symbolic answer, and EXPLAIN
				// degrades to the symbolic-only report — mirroring the
				// facade's fallbacks. SAMPLE has no symbolic equivalent.
				switch c.Mode {
				case sqldialect.ModeVolume:
					sq, serr := c.Node.CompileSymbolic(entry.DB)
					if serr != nil {
						s.writeError(w, "sql", http.StatusUnprocessableEntity, serr)
						return
					}
					if !s.execSymbolic(w, r, "sql", entry, sq, &resp.exprResponse) {
						return
					}
				case sqldialect.ModeExplain:
					if !s.sqlExplainSymbolic(w, entry, c.Node, &resp) {
						return
					}
				default:
					s.writeError(w, "sql", http.StatusUnprocessableEntity,
						fmt.Errorf("%w; SAMPLE needs an existential-positive statement", err))
					return
				}
				break
			}
			s.writeError(w, "sql", http.StatusBadRequest, err)
			return
		}
		cp := query.Canonicalize(plan)
		resp.Columns = cp.Plan.OutVars
		resp.CanonicalKey = cp.Key
		resp.Empty = cp.Empty()
		var seed uint64
		if c.SeedSet {
			seed = c.Seed
		}
		x := planExec{mode: string(c.Mode), n: c.N, workers: workers, seed: seed}
		if !s.execPlanMode(w, r, "sql", entry, cp, opts, x, &resp.exprResponse) {
			return
		}
	}
	// The SQL-visible columns (aliases applied) override the plan's
	// positional names; the canonical key is unaffected — keys never
	// include column names.
	if len(c.Columns) > 0 {
		resp.Columns = append([]string(nil), c.Columns...)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	resp.Spans = traceSpans(r.Context(), trace)
	writeJSON(w, http.StatusOK, resp)
}

// sqlExplainSymbolic serves EXPLAIN SYMBOLIC (and plain EXPLAIN of a
// full first-order statement): report the symbolic cache key and its
// residency without evaluating anything.
func (s *Server) sqlExplainSymbolic(w http.ResponseWriter, entry *runtime.DatabaseEntry, node *query.Node, resp *sqlResponse) bool {
	sq, err := node.CompileSymbolic(entry.DB)
	if err != nil {
		s.writeError(w, "sql", http.StatusUnprocessableEntity, err)
		return false
	}
	skey := runtime.SymbolicKey(entry.ID, sq.Key)
	resp.Columns = sq.OutVars
	resp.CanonicalKey = sq.Key
	resp.SymbolicKey = skey
	resp.Cache = residencyLabel(s.rt.SymbolicCache().Peek(skey))
	return true
}

// routeKeySQL parses the statement and routes on the exact cache key
// handleSQL will touch: the prepared-plan key for sample/volume/explain
// statements, the symbolic key for bare SELECTs, EXPLAIN SYMBOLIC and
// full first-order fallbacks. SQL requests carry no sampler options, so
// the options fingerprint is DefaultOptions' — matching the handler.
func routeKeySQL(s *Server, r *http.Request, body []byte) string {
	e, ok := s.rt.Registry().Get(r.URL.Query().Get("database"))
	if !ok {
		return ""
	}
	c, err := sqldialect.Compile(e.DB, string(body))
	if err != nil {
		return ""
	}
	symbolic := func() string {
		sq, err := c.Node.CompileSymbolic(e.DB)
		if err != nil {
			return ""
		}
		return runtime.SymbolicKey(e.ID, sq.Key)
	}
	if c.Mode == sqldialect.ModeRelation || (c.Mode == sqldialect.ModeExplain && c.ExplainSymbolic) {
		return symbolic()
	}
	plan, err := c.Node.Compile(e.DB)
	if err != nil {
		if errors.Is(err, cdb.ErrUnsupportedQuery) {
			return symbolic()
		}
		return ""
	}
	return runtime.PlanKey(e.ID, query.Canonicalize(plan).Key, cdb.DefaultOptions().CacheKey())
}
