package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	cdb "repro"
	"repro/internal/runtime"
	"repro/internal/spacetime"
)

// The spacetime endpoints serve the moving-object workload: relations
// over (x_1..x_d, t) — typically trajectory fleets of space-time prisms
// — queried through the time-slice operator, whole-trajectory sampling
// and alibi evaluation. The slicing/windowing/alibi preparation and its
// caching live in internal/runtime; handlers here only decode, call and
// encode.
//
// Time slices are where the prepared-sampler cache earns its keep for
// this workload: a dashboard replaying "where could everything have
// been at t0?" hits the same (database, relation, t0, options) key on
// every frame, so the slicing + rounding + volume setup is paid once
// per distinct t0 and every later request binds only its seed. Empty
// slices are cached as negative entries, so out-of-support replays are
// O(1) verdict lookups. Alibi queries cache the meet region, its exact
// Fourier–Motzkin meeting-time intervals and the volume observable the
// same way.

// errEmptySlice marks a time slice (or window) with no feasible tuple —
// t0 outside the relation's support. Mapped to 422 by writeError;
// volume-mode requests convert it to a zero-volume 200 instead.
var errEmptySlice = runtime.ErrEmptySlice

// --- POST /v1/spacetime/slice -------------------------------------------

type spacetimeSliceRequest struct {
	Database string  `json:"database"`
	Relation string  `json:"relation"`
	T0       float64 `json:"t0"`
	// Mode is "sample" (default) or "volume" (the snapshot's measure;
	// zero with empty=true when t0 lies outside the support).
	Mode    string       `json:"mode,omitempty"`
	N       int          `json:"n,omitempty"`       // default 1
	Workers int          `json:"workers,omitempty"` // default Config.DefaultWorkers
	Seed    uint64       `json:"seed"`
	Options *OptionsJSON `json:"options,omitempty"`
	Stream  bool         `json:"stream,omitempty"`
}

type spacetimeSliceResponse struct {
	Database  string       `json:"database"`
	Relation  string       `json:"relation"`
	T0        float64      `json:"t0"`
	Mode      string       `json:"mode"`
	N         int          `json:"n,omitempty"`
	Workers   int          `json:"workers,omitempty"`
	Seed      uint64       `json:"seed"`
	Cache     string       `json:"cache,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
	Empty     bool         `json:"empty,omitempty"`
	Volume    *float64     `json:"volume,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Points    []cdb.Vector `json:"points,omitempty"`
}

func (s *Server) resolveSpacetimeSlice(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req spacetimeSliceRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	entry, opts, err := s.lookup(req.Database, req.Options)
	if err != nil {
		return resolved{}, err
	}
	t := target{entry: entry, opts: opts, key: runtime.SliceKey(entry.ID, req.Relation, req.T0, opts.CacheKey())}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveSpacetimeSlice(w, r, &req, t) }}, nil
}

func (s *Server) serveSpacetimeSlice(w http.ResponseWriter, r *http.Request, req *spacetimeSliceRequest, t target) {
	const endpoint = "spacetime_slice"
	mode := req.Mode
	if mode == "" {
		mode = "sample"
	}
	start := time.Now()
	resp := spacetimeSliceResponse{
		Database: t.entry.ID, Relation: req.Relation, T0: req.T0, Mode: mode, Seed: req.Seed,
	}
	switch mode {
	case "volume":
		ps, _, hit, err := s.rt.PreparedSlice(t.entry, req.Relation, req.T0, t.opts)
		if errors.Is(err, errEmptySlice) {
			zero := 0.0
			resp.Empty, resp.Volume = true, &zero
			resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if err != nil {
			s.writeError(w, endpoint, http.StatusBadRequest, err)
			return
		}
		v, err := ps.VolumeCtx(r.Context(), req.Seed)
		if err != nil {
			s.writeError(w, endpoint, http.StatusInternalServerError, err)
			return
		}
		resp.Volume, resp.Cache = &v, cacheLabel(hit)
	case "sample":
		n, err := s.sampleCount(req.N, 1)
		if err != nil {
			s.writeError(w, endpoint, http.StatusBadRequest, err)
			return
		}
		workers := s.workersOr(req.Workers)
		ps, key, hit, err := s.rt.PreparedSlice(t.entry, req.Relation, req.T0, t.opts)
		if err != nil {
			s.writeError(w, endpoint, http.StatusBadRequest, err)
			return
		}
		pts, coalesced, err := s.rt.Executor().SampleManyCtx(r.Context(), key, ps, n, workers, req.Seed)
		if err != nil {
			s.writeError(w, endpoint, http.StatusInternalServerError, err)
			return
		}
		s.metrics.SamplesServed.Add(int64(len(pts)))
		resp.N, resp.Workers, resp.Cache, resp.Coalesced = n, workers, cacheLabel(hit), coalesced
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		if req.Stream {
			streamPoints(w, resp, pts)
			return
		}
		resp.Points = pts
		writeJSON(w, http.StatusOK, resp)
		return
	default:
		s.writeError(w, endpoint, http.StatusBadRequest,
			fmt.Errorf("unknown mode %q (want sample or volume)", mode))
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /v1/spacetime/sample ------------------------------------------

type spacetimeSampleRequest struct {
	Database string `json:"database"`
	Relation string `json:"relation"`
	// T0/T1 optionally restrict sampling to the time window [t0, t1];
	// omitted, the whole trajectory is sampled.
	T0      *float64     `json:"t0,omitempty"`
	T1      *float64     `json:"t1,omitempty"`
	N       int          `json:"n,omitempty"`
	Workers int          `json:"workers,omitempty"`
	Seed    uint64       `json:"seed"`
	Options *OptionsJSON `json:"options,omitempty"`
	Stream  bool         `json:"stream,omitempty"`
}

// resolveSpacetimeSample keys a windowed draw by its window; with no
// window the request shares /v1/sample's plan key and cache entry.
func (s *Server) resolveSpacetimeSample(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req spacetimeSampleRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	entry, opts, err := s.lookup(req.Database, req.Options)
	if err != nil {
		return resolved{}, err
	}
	var t target
	switch {
	case (req.T0 == nil) != (req.T1 == nil):
		return resolved{}, reject(http.StatusBadRequest, errors.New("t0 and t1 must be given together"))
	case req.T0 != nil:
		t = target{entry: entry, opts: opts, key: runtime.WindowKey(entry.ID, req.Relation, *req.T0, *req.T1, opts.CacheKey())}
	default:
		cp, err := entry.Target(req.Relation, "")
		if err != nil {
			return resolved{}, reject(http.StatusBadRequest, err)
		}
		t = planTarget(entry, opts, cp)
	}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveSpacetimeSample(w, r, &req, t) }}, nil
}

func (s *Server) serveSpacetimeSample(w http.ResponseWriter, r *http.Request, req *spacetimeSampleRequest, t target) {
	const endpoint = "spacetime_sample"
	n, err := s.sampleCount(req.N, 1)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err)
		return
	}
	workers := s.workersOr(req.Workers)
	start := time.Now()
	var (
		ps  *cdb.PreparedSampler
		key string
		hit bool
	)
	if t.plan != nil {
		ps, key, hit, err = s.rt.PreparedPlan(t.entry, t.plan, t.opts)
	} else {
		ps, key, hit, err = s.rt.PreparedWindow(t.entry, req.Relation, *req.T0, *req.T1, t.opts)
	}
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err)
		return
	}
	pts, coalesced, err := s.rt.Executor().SampleManyCtx(r.Context(), key, ps, n, workers, req.Seed)
	if err != nil {
		s.writeError(w, endpoint, http.StatusInternalServerError, err)
		return
	}
	s.metrics.SamplesServed.Add(int64(len(pts)))
	resp := sampleResponse{
		Database:  t.entry.ID,
		Target:    req.Relation,
		N:         n,
		Workers:   workers,
		Seed:      req.Seed,
		Cache:     cacheLabel(hit),
		Coalesced: coalesced,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	if req.Stream {
		streamPoints(w, resp, pts)
		return
	}
	resp.Points = pts
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /v1/spacetime/alibi -------------------------------------------

type alibiRequest struct {
	Database string  `json:"database"`
	A        string  `json:"a"`
	B        string  `json:"b"`
	T0       float64 `json:"t0"`
	T1       float64 `json:"t1"`
	Seed     uint64  `json:"seed"`
	// MedianK > 1 amplifies the meeting-volume confidence with the
	// median of k independent preparations of the meet region
	// (core.MedianVolume, capped by Config.MaxMedianK); the default uses
	// the warm prepared estimate.
	MedianK int          `json:"median_k,omitempty"`
	Options *OptionsJSON `json:"options,omitempty"`
}

type alibiResponse struct {
	Database  string  `json:"database"`
	A         string  `json:"a"`
	B         string  `json:"b"`
	Cache     string  `json:"cache,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	spacetime.Report
}

func (s *Server) resolveSpacetimeAlibi(w http.ResponseWriter, r *http.Request) (resolved, error) {
	var req alibiRequest
	body, err := readJSON(w, r, 1<<16, &req)
	if err != nil {
		return resolved{}, err
	}
	entry, opts, err := s.lookup(req.Database, req.Options)
	if err != nil {
		return resolved{}, err
	}
	t := target{entry: entry, opts: opts, key: runtime.AlibiKey(entry.ID, req.A, req.B, req.T0, req.T1, opts.CacheKey())}
	return resolved{t.key, body, func(w http.ResponseWriter, r *http.Request) { s.serveSpacetimeAlibi(w, r, &req, t) }}, nil
}

func (s *Server) serveSpacetimeAlibi(w http.ResponseWriter, r *http.Request, req *alibiRequest, t target) {
	const endpoint = "spacetime_alibi"
	if req.MedianK > s.cfg.MaxMedianK {
		s.writeError(w, endpoint, http.StatusBadRequest,
			fmt.Errorf("median_k=%d exceeds the cap %d", req.MedianK, s.cfg.MaxMedianK))
		return
	}
	if req.T1 < req.T0 {
		s.writeError(w, endpoint, http.StatusBadRequest,
			fmt.Errorf("empty window [%g, %g]", req.T0, req.T1))
		return
	}
	start := time.Now()
	// The meet region, its Fourier–Motzkin intervals and the volume
	// observable are prepared once per (db, a, b, t0, t1, options) in the
	// shared cache; this request only binds its seed, unless median_k > 1
	// asks for that many fresh preparations of the region.
	pa, hit, err := s.rt.PreparedAlibi(t.entry, req.A, req.B, req.T0, req.T1, t.opts)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err)
		return
	}
	rep, err := pa.Report(r.Context(), req.Seed, req.MedianK)
	if err != nil {
		s.writeError(w, endpoint, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, alibiResponse{
		Database:  t.entry.ID,
		A:         req.A,
		B:         req.B,
		Cache:     cacheLabel(hit),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Report:    *rep,
	})
}
