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

// sqlCall is a /v1/sql request resolved: the compiled statement, its
// query-string parameters and its target — the canonical plan of a
// SAMPLE, VOLUME(*) or EXPLAIN statement, or the symbolic query of a
// bare SELECT, an EXPLAIN SYMBOLIC or a full first-order fallback.
type sqlCall struct {
	c       *sqldialect.Compiled
	t       target
	workers int
	trace   bool
}

// resolveSQL reads and compiles the statement down to the exact cache
// key serveSQL will touch: the plan key for sample, volume and explain
// statements, the symbolic key for bare SELECTs, EXPLAIN SYMBOLIC and
// full first-order fallbacks.
func (s *Server) resolveSQL(w http.ResponseWriter, r *http.Request) (resolved, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSQLBytes))
	if err != nil {
		return resolved{}, reject(http.StatusBadRequest, fmt.Errorf("read statement: %w", err))
	}
	q := r.URL.Query()
	entry, ok := s.rt.Registry().Get(q.Get("database"))
	if !ok {
		return resolved{}, reject(http.StatusNotFound, fmt.Errorf("database %q not registered (pass ?database=)", q.Get("database")))
	}
	c, err := sqldialect.Compile(entry.DB, string(body))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, query.ErrUnknownTarget) {
			status = http.StatusNotFound
		}
		return resolved{}, reject(status, err)
	}
	call := &sqlCall{c: c}
	if v := q.Get("trace"); v != "" {
		call.trace, _ = strconv.ParseBool(v)
	}
	if v := q.Get("workers"); v != "" {
		call.workers, err = strconv.Atoi(v)
		if err != nil || call.workers < 0 {
			return resolved{}, reject(http.StatusBadRequest, fmt.Errorf("bad workers %q", v))
		}
	}
	symbolic := func() error {
		sq, err := c.Node.CompileSymbolic(entry.DB)
		if err != nil {
			return reject(http.StatusUnprocessableEntity, err)
		}
		call.t = symbolicTarget(entry, sq)
		return nil
	}
	if c.Mode == sqldialect.ModeRelation || (c.Mode == sqldialect.ModeExplain && c.ExplainSymbolic) {
		// Bare SELECT derives the relation itself, which only symbolic
		// evaluation returns; EXPLAIN SYMBOLIC reports that path.
		err = symbolic()
	} else if plan, perr := c.Node.Compile(entry.DB); perr == nil {
		// Statements carry no sampler options: every SQL request shares
		// the DefaultOptions cache entries — the same fingerprint
		// optionless /v1/expr requests and the cdb facade use.
		call.t = planTarget(entry, cdb.DefaultOptions(), query.Canonicalize(plan))
	} else if errors.Is(perr, cdb.ErrUnsupportedQuery) && c.Mode != sqldialect.ModeSample {
		// Full first-order statement outside the sampling fragment:
		// VOLUME(*) still has an exact symbolic answer, and EXPLAIN
		// degrades to the symbolic-only report — mirroring the facade's
		// fallbacks.
		err = symbolic()
	} else if errors.Is(perr, cdb.ErrUnsupportedQuery) {
		// SAMPLE has no symbolic equivalent.
		err = reject(http.StatusUnprocessableEntity,
			fmt.Errorf("%w; SAMPLE needs an existential-positive statement", perr))
	} else {
		err = reject(http.StatusBadRequest, perr)
	}
	if err != nil {
		return resolved{}, err
	}
	return resolved{call.t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveSQL(w, r, call) }}, nil
}

func (s *Server) serveSQL(w http.ResponseWriter, r *http.Request, call *sqlCall) {
	c, t := call.c, call.t
	start := time.Now()
	resp := sqlResponse{
		exprResponse: exprResponse{Database: t.entry.ID, Mode: string(c.Mode), TraceID: traceID(r.Context())},
		Statement:    c.Source,
	}
	switch {
	case t.plan != nil:
		var seed uint64
		if c.SeedSet {
			seed = c.Seed
		}
		x := planExec{mode: string(c.Mode), n: c.N, workers: call.workers, seed: seed}
		if !s.execPlanMode(w, r, "sql", t, x, &resp.exprResponse) {
			return
		}
	case c.Mode == sqldialect.ModeExplain:
		// EXPLAIN SYMBOLIC (and plain EXPLAIN of a full first-order
		// statement): report the symbolic cache key and its residency
		// without evaluating anything.
		resp.Columns = t.sym.OutVars
		resp.CanonicalKey = t.sym.Key
		resp.SymbolicKey = t.key
		resp.Cache = residencyLabel(s.rt.SymbolicCache().Peek(t.key))
	default:
		if !s.execSymbolic(w, r, "sql", t, &resp.exprResponse) {
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
	resp.Spans = traceSpans(r.Context(), call.trace)
	writeJSON(w, http.StatusOK, resp)
}
