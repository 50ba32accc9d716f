package server

// POST /v1/expr: the relational-algebra endpoint. Clients send a small
// JSON expression tree (rel / where / intersect / union / minus /
// project / timeslice) instead of a named query; the server compiles it
// to the same canonical plan cdb.Expr produces, so structurally equal
// expressions — whichever surface built them, in whatever operand order
// — share one prepared-sampler cache entry. Provably empty expressions
// replay as O(1) cached verdicts (volume 0).

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/query"
	"repro/internal/runtime"
)

// maxExprNodes bounds the operator count of one expression tree.
const maxExprNodes = 256

// exprNodeJSON is the wire form of one algebra operator.
type exprNodeJSON struct {
	// Op is one of "rel", "where", "intersect", "union", "minus",
	// "project", "timeslice", "div".
	Op string `json:"op"`
	// Name is the relation or query name of a "rel" leaf.
	Name string `json:"name,omitempty"`
	// Args are the operand subtrees: one for where/project/timeslice,
	// two for intersect/union/minus.
	Args []*exprNodeJSON `json:"args,omitempty"`
	// Atoms are "where" selections over the child's columns, in order.
	Atoms []exprAtomJSON `json:"atoms,omitempty"`
	// Vars are the "project" columns to keep, in order.
	Vars []string `json:"vars,omitempty"`
	// T is the "timeslice" probe time.
	T float64 `json:"t,omitempty"`
}

// exprAtomJSON is the wire form of a linear constraint coef·x <= b
// (< b when strict).
type exprAtomJSON struct {
	Coef   []float64 `json:"coef"`
	B      float64   `json:"b"`
	Strict bool      `json:"strict,omitempty"`
}

// opPathError locates an expression error at one operator of the wire
// tree. The path is dotted from the root: "expr", "expr.args[1]",
// "expr.args[0].args[1]". writeError renders it as {error, op_path}.
type opPathError struct {
	path string
	err  error
}

func (e *opPathError) Error() string { return fmt.Sprintf("%s (at %s)", e.err, e.path) }
func (e *opPathError) Unwrap() error { return e.err }

// toNode lowers the wire tree onto the algebra IR, charging each
// operator against the node budget. Errors are opPathError values
// positioned at the operator that produced them.
func (n *exprNodeJSON) toNode(budget *int, path string) (*query.Node, error) {
	fail := func(format string, args ...any) error {
		return &opPathError{path: path, err: fmt.Errorf(format, args...)}
	}
	if n == nil {
		return nil, fail("missing expr node")
	}
	*budget--
	if *budget < 0 {
		return nil, fail("expression exceeds %d operators", maxExprNodes)
	}
	one := func() (*query.Node, error) {
		if len(n.Args) != 1 {
			return nil, fail("op %q wants 1 operand, got %d", n.Op, len(n.Args))
		}
		return n.Args[0].toNode(budget, path+".args[0]")
	}
	two := func() (l, r *query.Node, err error) {
		if len(n.Args) != 2 {
			return nil, nil, fail("op %q wants 2 operands, got %d", n.Op, len(n.Args))
		}
		if l, err = n.Args[0].toNode(budget, path+".args[0]"); err != nil {
			return nil, nil, err
		}
		r, err = n.Args[1].toNode(budget, path+".args[1]")
		return l, r, err
	}
	switch n.Op {
	case "rel":
		if n.Name == "" {
			return nil, fail(`op "rel" wants a name`)
		}
		return query.NewRel(n.Name), nil
	case "where":
		child, err := one()
		if err != nil {
			return nil, err
		}
		atoms := make([]constraint.Atom, len(n.Atoms))
		for i, a := range n.Atoms {
			if len(a.Coef) == 0 {
				return nil, fail("where atom %d has no coefficients", i)
			}
			atoms[i] = constraint.NewAtom(a.Coef, a.B, a.Strict)
		}
		return child.Where(atoms...), nil
	case "intersect", "union", "minus", "div":
		l, r, err := two()
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "intersect":
			return l.Intersect(r), nil
		case "union":
			return l.Union(r), nil
		case "div":
			return l.Div(r), nil
		default:
			return l.Minus(r), nil
		}
	case "project":
		child, err := one()
		if err != nil {
			return nil, err
		}
		if len(n.Vars) == 0 {
			return nil, fail(`op "project" wants vars`)
		}
		return child.Project(n.Vars...), nil
	case "timeslice":
		child, err := one()
		if err != nil {
			return nil, err
		}
		return child.TimeSlice(n.T), nil
	default:
		return nil, fail("unknown op %q (want rel, where, intersect, union, minus, div, project or timeslice)", n.Op)
	}
}

// failingPath locates the deepest subtree that fails structural
// compilation on its own, so post-decode errors (unknown relation,
// column-arity mismatch at a set operation) still come back with an
// op_path. Children are probed first: when every child checks out the
// failure belongs to the combining operator itself. Returns "" when no
// subtree fails in isolation — e.g. a mode restriction like sampling a
// full first-order tree, which is not located at any one operator.
func (n *exprNodeJSON) failingPath(db *constraint.Database, path string) string {
	if n == nil {
		return ""
	}
	for i, a := range n.Args {
		if p := a.failingPath(db, fmt.Sprintf("%s.args[%d]", path, i)); p != "" {
			return p
		}
	}
	budget := maxExprNodes
	node, err := n.toNode(&budget, path)
	if err != nil {
		return path
	}
	if _, err := node.Columns(db); err != nil {
		return path
	}
	return ""
}

// exprCompileError rejects a compile failure, decorated with the
// op_path of the deepest independently-failing subtree when there is
// one.
func exprCompileError(root *exprNodeJSON, db *constraint.Database, err error) error {
	status := http.StatusBadRequest
	if errors.Is(err, query.ErrUnknownTarget) {
		status = http.StatusNotFound
	}
	if p := root.failingPath(db, "expr"); p != "" {
		err = &opPathError{path: p, err: err}
	}
	return reject(status, err)
}

// --- POST /v1/expr --------------------------------------------------------

type exprRequest struct {
	Database string        `json:"database"`
	Expr     *exprNodeJSON `json:"expr"`
	// Mode selects the evaluation: "volume" (default), "sample",
	// "explain" or "symbolic" (full first-order quantifier elimination
	// — the only mode accepting "div" and minus-of-projection trees).
	Mode    string       `json:"mode,omitempty"`
	N       int          `json:"n,omitempty"`       // samples for mode=sample (default 1)
	Workers int          `json:"workers,omitempty"` // default Config.DefaultWorkers
	Seed    uint64       `json:"seed"`
	Options *OptionsJSON `json:"options,omitempty"`
	// Trace includes the request's span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

type exprDisjunctJSON struct {
	Kind         string `json:"kind"` // "convex" or "projection"
	Dim          int    `json:"dim"`
	Constraints  int    `json:"constraints"`
	ExVars       int    `json:"ex_vars,omitempty"`
	CanonicalKey string `json:"canonical_key"`
	Cache        string `json:"cache"`
}

type exprResponse struct {
	Database     string             `json:"database"`
	Mode         string             `json:"mode"`
	Columns      []string           `json:"columns"`
	CanonicalKey string             `json:"canonical_key"`
	Cache        string             `json:"cache"` // hit | miss | negative
	Empty        bool               `json:"empty,omitempty"`
	Volume       *float64           `json:"volume,omitempty"`
	Points       []cdb.Vector       `json:"points,omitempty"`
	Plan         string             `json:"plan,omitempty"`
	Disjuncts    []exprDisjunctJSON `json:"disjuncts,omitempty"`
	Coalesced    bool               `json:"coalesced,omitempty"`
	// Source and Tuples are set by mode=symbolic: the eliminated
	// quantifier-free DNF as a parseable `rel` declaration and its
	// tuple count; Volume then carries the EXACT inclusion–exclusion
	// volume (omitted when the relation is too large or unbounded).
	Source    string    `json:"source,omitempty"`
	Tuples    int       `json:"tuples,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
	TraceID   string    `json:"trace_id,omitempty"`
	Spans     *spanJSON `json:"spans,omitempty"`
}

// resolveExpr compiles the expression tree to its canonical plan,
// keyed by the runtime.PlanKey it caches under, so structurally equal
// expressions reach one owner whatever surface or operand order
// produced them. Symbolic mode compiles the symbolic query instead,
// keyed by the symbolic key (no option enters the symbolic cache).
func (s *Server) resolveExpr(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req exprRequest
	body, err := readJSON(w, r, 1<<18, &req)
	if err != nil {
		return resolved{}, err
	}
	entry, opts, err := s.lookup(req.Database, req.Options)
	if err != nil {
		return resolved{}, err
	}
	budget := maxExprNodes
	node, err := req.Expr.toNode(&budget, "expr")
	if err != nil {
		return resolved{}, reject(http.StatusBadRequest, err)
	}
	var t target
	if req.Mode == "symbolic" {
		sq, err := node.CompileSymbolic(entry.DB)
		if err != nil {
			return resolved{}, exprCompileError(req.Expr, entry.DB, err)
		}
		t = symbolicTarget(entry, sq)
	} else {
		plan, err := node.Compile(entry.DB)
		if err != nil {
			return resolved{}, exprCompileError(req.Expr, entry.DB, err)
		}
		t = planTarget(entry, opts, query.Canonicalize(plan))
	}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveExpr(w, r, &req, t) }}, nil
}

func (s *Server) serveExpr(w http.ResponseWriter, r *http.Request, req *exprRequest, t target) {
	mode := req.Mode
	if mode == "" {
		mode = "volume"
	}
	start := time.Now()
	resp := exprResponse{Database: t.entry.ID, Mode: mode, TraceID: traceID(r.Context())}
	if t.sym != nil {
		if !s.execSymbolic(w, r, "expr", t, &resp) {
			return
		}
	} else {
		x := planExec{mode: mode, n: req.N, workers: req.Workers, seed: req.Seed}
		if !s.execPlanMode(w, r, "expr", t, x, &resp) {
			return
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	resp.Spans = traceSpans(r.Context(), req.Trace)
	writeJSON(w, http.StatusOK, resp)
}

// planExec carries the execution parameters of one volume/sample/explain
// evaluation — the surfaces (/v1/expr JSON body, /v1/sql statement)
// derive them differently but execute identically.
type planExec struct {
	mode    string
	n       int
	workers int
	seed    uint64
}

// execPlanMode evaluates a canonical plan in mode volume, sample or
// explain and fills resp — the shared execution core of /v1/expr and
// /v1/sql, so both surfaces hit the same prepared-plan cache entries
// and report the same cache labels. Returns false after writing an
// error response.
func (s *Server) execPlanMode(w http.ResponseWriter, r *http.Request, endpoint string, t target, p planExec, resp *exprResponse) bool {
	cp := t.plan
	resp.Columns = cp.Plan.OutVars
	resp.CanonicalKey = cp.Key
	resp.Empty = cp.Empty()
	if p.mode == "explain" {
		resp.Cache = peekLabel(s.rt, t.key)
		resp.Plan = cp.Plan.Describe()
		dkeys := cp.DisjunctKeys()
		for i, d := range cp.Plan.Disjuncts {
			kind := "convex"
			if d.ExVars > 0 {
				kind = "projection"
			}
			resp.Disjuncts = append(resp.Disjuncts, exprDisjunctJSON{
				Kind:         kind,
				Dim:          d.Poly.Dim(),
				Constraints:  d.Poly.Rows(),
				ExVars:       d.ExVars,
				CanonicalKey: dkeys[i],
				Cache:        peekLabel(s.rt, runtime.PlanKey(t.entry.ID, dkeys[i], t.opts.CacheKey())),
			})
		}
		return true
	}

	x, err := t.exec(s)
	if err != nil {
		s.writeError(w, endpoint, http.StatusUnprocessableEntity, err)
		return false
	}
	resp.Cache = cacheLabel(x.Hit)
	if _, verr := x.Sampler(); x.Hit && runtime.IsNegative(verr) {
		// A replayed cached verdict (empty or projection-needing plan):
		// distinguish it from warm prepared geometry.
		resp.Cache = "negative"
	}
	switch p.mode {
	case "volume":
		v, err := x.Volume(r.Context(), nil)
		if err != nil {
			s.writeError(w, endpoint, http.StatusInternalServerError, err)
			return false
		}
		resp.Volume = &v
	case "sample":
		n, err := s.sampleCount(p.n, 1)
		if err != nil {
			s.writeError(w, endpoint, http.StatusBadRequest, err)
			return false
		}
		pts, coalesced, err := x.SampleN(r.Context(), n, s.workersOr(p.workers), p.seed)
		if err != nil {
			s.writeError(w, endpoint, http.StatusInternalServerError, err)
			return false
		}
		resp.Points, resp.Coalesced = pts, coalesced
		s.metrics.SamplesServed.Add(int64(len(resp.Points)))
	default:
		s.writeError(w, endpoint, http.StatusBadRequest,
			fmt.Errorf("unknown mode %q (want volume, sample, explain or symbolic)", p.mode))
		return false
	}
	return true
}

// execSymbolic evaluates a compiled symbolic query through the
// prepared-symbolic cache and fills resp: the eliminated DNF as a
// parseable Source() declaration, its tuple count and, when the
// inclusion–exclusion pass is feasible, the exact volume. Options are
// irrelevant — symbolic evaluation is exact, so every configuration
// shares one cache entry per canonical plan. Returns false after
// writing an error response.
func (s *Server) execSymbolic(w http.ResponseWriter, r *http.Request, endpoint string, t target, resp *exprResponse) bool {
	sq := t.sym
	se, _, hit, err := s.rt.Symbolic(r.Context(), t.entry, sq)
	resp.Columns = sq.OutVars
	resp.CanonicalKey = sq.Key
	resp.Cache = cacheLabel(hit)
	var rel *constraint.Relation
	switch {
	case errors.Is(err, runtime.ErrEmptyExpr):
		if hit {
			resp.Cache = "negative"
		}
		resp.Empty = true
		zero := 0.0
		resp.Volume = &zero
		rel = &constraint.Relation{Name: "derived", Vars: sq.OutVars}
	case err != nil:
		s.writeError(w, endpoint, http.StatusUnprocessableEntity, err)
		return false
	default:
		rel = se.Rel
		// The exact inclusion–exclusion pass is exponential in tuple
		// count; it is computed once per cache entry and replayed here —
		// warm requests must not re-pay it. Omitted when infeasible
		// (too many tuples, unbounded).
		if v, verr := se.ExactVolume(r.Context()); verr == nil {
			resp.Volume = &v
		}
	}
	resp.Source = rel.Source()
	resp.Tuples = len(rel.Tuples)
	return true
}

// peekLabel reports prepared-plan cache residency without touching LRU
// order or metrics.
func peekLabel(rt *runtime.Runtime, key string) string {
	return residencyLabel(rt.Cache().Peek(key))
}

// residencyLabel renders a cache Peek result as the wire label.
func residencyLabel(cached, negative bool) string {
	switch {
	case !cached:
		return "miss"
	case negative:
		return "negative"
	default:
		return "hit"
	}
}
