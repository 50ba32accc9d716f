package server

// Every data-plane endpoint is split in two. Its resolve step reads the
// body under the endpoint's size limit, decodes it strictly, looks up
// the database entry and options, compiles and canonicalizes the plan
// (or the symbolic query, or names the slice, window or alibi) and
// returns the cache key the serving half will touch. routed hashes that
// key and hands the same value to the serving half on every local path,
// so a node decodes and compiles a request once: a forwarded request is
// resolved at its ingress and at its owner, a local one once. Checks
// that read node configuration (MaxSamples, MaxMedianK, DefaultWorkers)
// stay in the serving half, where the owner's configuration decides.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	cdb "repro"
	"repro/internal/query"
	"repro/internal/runtime"
)

// resolved is one data-plane request after its resolve step.
type resolved struct {
	// key is the cache key serve touches; routing hashes it.
	key string
	// body is the request body as read, forwarded verbatim to the owner.
	body []byte
	// serve answers the request on this node.
	serve func(w http.ResponseWriter, r *http.Request)
}

// resolveFunc is an endpoint's resolve step. Its errors come from
// reject, carrying the status the request is answered with.
type resolveFunc func(w http.ResponseWriter, r *http.Request) (resolved, error)

// requestError is a request its resolve step refused: err is answered
// with status (writeError may still refine it, e.g. to 404 for an
// unknown target).
type requestError struct {
	status int
	err    error
}

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

func reject(status int, err error) error { return &requestError{status: status, err: err} }

// writeRejected answers a request its resolve step refused.
func (s *Server) writeRejected(w http.ResponseWriter, endpoint string, err error) {
	status := http.StatusBadRequest
	var re *requestError
	if errors.As(err, &re) {
		status, err = re.status, re.err
	}
	s.writeError(w, endpoint, status, err)
}

// readJSON reads a JSON body under limit and decodes it into v,
// rejecting unknown fields. It returns the body for forwarding.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		return nil, reject(http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	return body, nil
}

// lookup resolves the database and options a JSON request names.
func (s *Server) lookup(database string, o *OptionsJSON) (*runtime.DatabaseEntry, cdb.Options, error) {
	e, ok := s.rt.Registry().Get(database)
	if !ok {
		return nil, cdb.Options{}, reject(http.StatusNotFound, fmt.Errorf("database %q not registered", database))
	}
	opts, err := o.toOptions()
	if err != nil {
		return nil, cdb.Options{}, reject(http.StatusBadRequest, err)
	}
	return e, opts, nil
}

// target is what a request resolves to: its database entry and
// options, and the canonical plan it names under its plan key, or (in
// symbolic mode) its symbolic query under the symbolic key, which no
// option enters. Spacetime requests fill only entry, opts and key.
type target struct {
	entry *runtime.DatabaseEntry
	opts  cdb.Options
	plan  *query.CanonicalPlan
	sym   *query.SymbolicQuery
	key   string
}

func planTarget(e *runtime.DatabaseEntry, opts cdb.Options, cp *query.CanonicalPlan) target {
	return target{entry: e, opts: opts, plan: cp, key: runtime.PlanKey(e.ID, cp.Key, opts.CacheKey())}
}

func symbolicTarget(e *runtime.DatabaseEntry, sq *query.SymbolicQuery) target {
	return target{entry: e, sym: sq, key: runtime.SymbolicKey(e.ID, sq.Key)}
}

// namedTarget resolves a name-addressed request (/v1/sample,
// /v1/volume, /v1/reconstruct) to the canonical plan db.Rel(name)
// compiles, so it routes and caches exactly like the structurally
// equal /v1/expr or /v1/sql request.
func (s *Server) namedTarget(database, relation, queryName string, o *OptionsJSON) (target, error) {
	e, opts, err := s.lookup(database, o)
	if err != nil {
		return target{}, err
	}
	cp, err := e.Target(relation, queryName)
	if err != nil {
		return target{}, reject(http.StatusBadRequest, err)
	}
	return planTarget(e, opts, cp), nil
}

// exec resolves the target's plan against the prepared cache.
func (t target) exec(s *Server) (*runtime.Exec, error) {
	return s.rt.Exec(t.entry, t.plan, t.opts, nil)
}

// sampleCount applies a request's default n and the node's cap on it.
func (s *Server) sampleCount(n, def int) (int, error) {
	if n <= 0 {
		n = def
	}
	if n > s.cfg.MaxSamples {
		return n, fmt.Errorf("n=%d exceeds the per-request cap %d", n, s.cfg.MaxSamples)
	}
	return n, nil
}

// workersOr applies the node's default worker count.
func (s *Server) workersOr(workers int) int {
	if workers <= 0 {
		return s.cfg.DefaultWorkers
	}
	return workers
}
