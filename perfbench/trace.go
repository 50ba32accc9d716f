package main

// The traced run (--trace 1). It first runs the workload through the
// public surface, untraced, for the run's duration, remembering every
// request and a fingerprint of its answer. Then a layer-by-layer driver
// — this file — replays those requests, for up to half the duration, on
// a runtime of its own: it calls
// each layer's public function in the order the facade does (sql.Compile
// → Node.Compile + query.Canonicalize → Runtime.PreparedPlan →
// core.SampleManyCtx on the runtime's pool, Prepared.NewObservableCtx per
// worker, Observable.Sample per point) and wraps every call in a span the
// driver records itself. The program gets no instrumentation; counters
// it already exports (core.EffortOf, query.ElimStats, DB.CacheStats,
// the runtime cost table, /metrics) are read, not added.
//
// The replay must return the facade's answers bit for bit
// (trace.identical_frac); the difference between the replay's request
// times and the facade's is trace.overhead_pct.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/runtime"
	sqldialect "repro/internal/sql"
)

// selfLayers are the layers whose share of self time the traced run
// reports; "driver" is the benchmark's own glue between calls.
var selfLayers = []string{"sql", "query", "runtime", "core", "walk", "constraint", "server", "cluster"}

// tracer accumulates per-layer self time: a span's duration minus the
// part its child spans cover.
type tracer struct {
	mu   sync.Mutex
	self map[string]time.Duration
}

type span struct {
	t      *tracer
	layer  string
	start  time.Time
	parent *span
	child  time.Duration
}

func newTracer() *tracer { return &tracer{self: map[string]time.Duration{}} }

func (t *tracer) begin(parent *span, layer string) *span {
	return &span{t: t, layer: layer, start: time.Now(), parent: parent}
}

// end closes the span and returns its duration. Children that ran in
// parallel (the draw's workers) can cover more than the parent's wall
// time; the parent's self time is then zero.
func (s *span) end() time.Duration {
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.t.self[s.layer] += max(0, d-s.child)
	if s.parent != nil {
		s.parent.child += d
	}
	s.t.mu.Unlock()
	return d
}

// add charges d of self time to layer directly (probe measurements of
// work the driver cannot wrap).
func (t *tracer) add(layer string, d time.Duration) {
	t.mu.Lock()
	t.self[layer] += max(0, d)
	t.mu.Unlock()
}

// layerStats collects the per-layer observations of one traced run.
type layerStats struct {
	mu sync.Mutex

	compileUS, canonUS, lookupUS, prepareMS, bindUS, queueUS []float64
	projectionMS, fmUS                                       []float64
	roundMS, sandwich, convexMS                              []float64
	handlerUS, directUS, forwardUS, respBytes                []float64

	steps, oracle, points, rounds, accepts int64
	walkNanos                              atomic.Int64
	atomsIn, atomsOut                      int
	allocs, allocBytes, allocPoints        float64
	stmtAllocs                             float64

	replayed, identical    int
	replayNanos, baseNanos int64
	hitRatio, evictions    float64
	gcFrac, forwardedShare float64
	shed, breakerOpen      float64
	relErrs                []float64
}

// driver is the layer-by-layer replay engine over its own runtime,
// registered exactly as cdb.Open registers a program.
type driver struct {
	rt      *runtime.Runtime
	entry   *runtime.DatabaseEntry
	opts    core.Options
	workers int
	tr      *tracer
	L       *layerStats
}

func newDriver(src string, tr *tracer, L *layerStats) (*driver, error) {
	db, err := cdb.Parse(src)
	if err != nil {
		return nil, err
	}
	rt := runtime.NewWithSink(runtime.Config{}, nil)
	entry, _, err := rt.Registry().RegisterParsed("main", src, db)
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &driver{rt: rt, entry: entry, opts: cdb.DefaultOptions(), workers: min(4, rt.Pool().Size()), tr: tr, L: L}, nil
}

func (d *driver) close() { d.rt.Close() }

func (d *driver) note(dst *[]float64, v float64) {
	d.L.mu.Lock()
	*dst = append(*dst, v)
	d.L.mu.Unlock()
}

// sqlCompile is the sql layer: parse + lower onto the algebra IR.
func (d *driver) sqlCompile(parent *span, text string) (*sqldialect.Compiled, error) {
	sp := d.tr.begin(parent, "sql")
	c, err := sqldialect.Compile(d.entry.DB, text)
	d.note(&d.L.compileUS, us(sp.end()))
	return c, err
}

// compile is the query layer: plan + canonicalize (LP pruning).
func (d *driver) compile(parent *span, node *query.Node) (*query.CanonicalPlan, error) {
	sp := d.tr.begin(parent, "query")
	plan, err := node.Compile(d.entry.DB)
	var cp *query.CanonicalPlan
	if err == nil {
		cp = query.Canonicalize(plan)
	}
	d.note(&d.L.canonUS, us(sp.end()))
	return cp, err
}

// prepared is Runtime.PreparedPlan. A hit is runtime work (a lookup); a
// miss is the core preparation (rounding and volume passes) behind the
// cache, so its time is charged to core.
func (d *driver) prepared(parent *span, cp *query.CanonicalPlan) (*runtime.Prepared, string, error) {
	key := runtime.PlanKey(d.entry.ID, cp.Key, d.opts.CacheKey())
	layer := "core"
	if cached, _ := d.rt.Cache().Peek(key); cached {
		layer = "runtime"
	}
	sp := d.tr.begin(parent, layer)
	ps, key, hit, err := d.rt.PreparedPlan(d.entry, cp, d.opts)
	if hit {
		d.note(&d.L.lookupUS, us(sp.end()))
	} else {
		d.note(&d.L.prepareMS, ms(sp.end()))
	}
	return ps, key, err
}

// timedObs wraps a bound generator so every Sample is a walk span.
type timedObs struct {
	core.Observable
	d      *driver
	parent *span
}

func (o *timedObs) Sample() (linalg.Vector, error) {
	sp := o.d.tr.begin(o.parent, "walk")
	x, err := o.Observable.Sample()
	o.d.L.walkNanos.Add(int64(sp.end()))
	return x, err
}

// draw is the executor's batched draw (Prepared.SampleManyObserved's
// calls, made here so each gets a span): core.SampleManyCtx on the
// runtime's pool, one bind per logical worker, then the walk.
func (d *driver) draw(ctx context.Context, parent *span, ps *runtime.Prepared, n int, seed uint64) ([]linalg.Vector, error) {
	sp := d.tr.begin(parent, "runtime")
	var (
		mu    sync.Mutex
		bound []core.Observable
		queue time.Duration
		jobs  int
	)
	factory := func(s uint64) (core.Observable, error) {
		b := d.tr.begin(sp, "runtime")
		o, err := ps.NewObservableCtx(ctx, s)
		d.note(&d.L.bindUS, us(b.end()))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		bound = append(bound, o)
		mu.Unlock()
		return &timedObs{Observable: o, d: d, parent: sp}, nil
	}
	submit := func(fn func()) {
		queued := time.Now()
		d.rt.Pool().Submit(func() {
			w := time.Since(queued)
			mu.Lock()
			queue += w
			jobs++
			mu.Unlock()
			fn()
		})
	}
	pts, err := core.SampleManyCtx(ctx, submit, factory, n, d.workers, seed)
	sp.end()
	var eff core.SampleStats
	for _, o := range bound {
		eff.Merge(core.EffortOf(o))
	}
	d.L.mu.Lock()
	defer d.L.mu.Unlock()
	if jobs > 0 {
		d.L.queueUS = append(d.L.queueUS, us(queue)/float64(jobs))
	}
	d.L.steps += eff.WalkSteps
	d.L.oracle += eff.OracleCalls
	d.L.rounds += eff.Rounds
	d.L.accepts += eff.Accepts
	d.L.points += int64(len(pts))
	return pts, err
}

// drawAllocs repeats a draw with none of the driver's spans or wrappers
// in the way and counts its heap allocations. ReadMemStats stops the
// world, so this runs outside the timed replay.
func (d *driver) drawAllocs(ctx context.Context, ps *runtime.Prepared, n int, seed uint64) error {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	pts, err := core.SampleManyCtx(ctx, d.rt.Pool().Submit, func(s uint64) (core.Observable, error) {
		return ps.NewObservableCtx(ctx, s)
	}, n, d.workers, seed)
	goruntime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	d.L.mu.Lock()
	d.L.allocs += float64(m1.Mallocs - m0.Mallocs)
	d.L.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	d.L.allocPoints += float64(len(pts))
	d.L.mu.Unlock()
	return nil
}

// project is the Algorithm 2 fallback the facade takes for plans the
// prepared cache refuses: a per-call engine over the canonical plan.
func (d *driver) project(parent *span, cp *query.CanonicalPlan, n int, seed uint64) ([]linalg.Vector, error) {
	sp := d.tr.begin(parent, "core")
	defer func() { d.note(&d.L.projectionMS, ms(sp.end())) }()
	o, err := query.NewEngine(d.entry.DB.Schema, d.opts, seed).ObservableFromPlan(cp.Plan)
	if err != nil {
		return nil, err
	}
	pts := make([]linalg.Vector, 0, n)
	for i := 0; i < n; i++ {
		x, err := o.Sample()
		if err != nil {
			return nil, err
		}
		pts = append(pts, x)
	}
	return pts, nil
}

// probeRounding times the rounding pass and the whole convex preparation
// of each tuple of a prepared relation on their own, outside any
// request: the runtime calls them behind one opaque PreparedPlan.
func (d *driver) probeRounding(rel *constraint.Relation, seed uint64) {
	for i, t := range rel.PruneEmpty().Tuples {
		poly := polytope.FromTuple(t)
		center, innerR, err := poly.Chebyshev()
		if err != nil {
			continue
		}
		bc, outerR, err := poly.EnclosingBall()
		if err != nil {
			continue
		}
		start := time.Now()
		ro, err := rounding.Round(poly, center, innerR, center.Dist(bc)+outerR, rng.New(seed+uint64(i)),
			rounding.Options{Iterations: 3}) // core's default rounding budget
		if err != nil {
			continue
		}
		d.note(&d.L.roundMS, ms(time.Since(start)))
		d.note(&d.L.sandwich, ro.Ratio())
		start = time.Now()
		if _, err := core.PrepareConvexPolytope(poly, rng.New(seed+uint64(i)), d.opts); err == nil {
			d.note(&d.L.convexMS, ms(time.Since(start)))
		}
	}
}

// replay compares one replayed answer and its time with the facade's.
func (L *layerStats) replay(s served, hash uint64, took time.Duration) {
	L.mu.Lock()
	defer L.mu.Unlock()
	L.replayed++
	if hash == s.hash {
		L.identical++
	}
	L.replayNanos += took.Nanoseconds()
	L.baseNanos += s.latency.Nanoseconds()
}

// gcCPU reads the cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// facadePhase runs the untraced phase, recording the share of CPU time
// the garbage collector took during it.
func (L *layerStats) facadePhase(fn func()) {
	g0, c0 := gcCPU()
	fn()
	g1, c1 := gcCPU()
	L.gcFrac = ratio(g1-g0, c1-c0)
}

// traced runs the traced form of a workload.
func traced(ctx context.Context, workload string, seed uint64, d time.Duration) (*result, error) {
	L := &layerStats{}
	tr := newTracer()
	var (
		t   *tally
		err error
	)
	switch workload {
	case "warm_draw":
		t, err = tracedWarm(ctx, seed, d, tr, L)
	case "adhoc_sql":
		t, err = tracedAdhoc(ctx, seed, d, tr, L)
	case "http_cluster":
		t, err = tracedCluster(seed, d, tr, L)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	L.relErrs = t.relErrs
	res := &result{
		Correct:   correct(t) && L.replayed > 0 && L.identical == L.replayed,
		Attempted: len(t.reqs) + L.replayed,
		Failed:    t.failed + t.volumeFailures + L.replayed - L.identical,
		Metrics:   perLayer(L, tr),
	}
	logf("replayed=%d identical=%d overhead=%.1f%%", L.replayed, L.identical, res.Metrics["trace.overhead_pct"].Value)
	return res, nil
}

func tracedWarm(ctx context.Context, seed uint64, d time.Duration, tr *tracer, L *layerStats) (*tally, error) {
	cat := newCatalog(seed)
	h, err := openWarm(ctx, cat)
	if err != nil {
		return nil, err
	}
	oracles, err := warmOracles(h, cat)
	if err != nil {
		h.db.Close()
		return nil, err
	}
	before := h.db.CacheStats()
	var (
		t   *tally
		log []served
	)
	L.facadePhase(func() { t, log = runWarm(ctx, h, cat, oracles, seed, d, true) })
	L.planCache(before, h.db.CacheStats())
	checkWarmVolumes(ctx, h, cat, oracles, t)
	h.db.Close()

	drv, err := newDriver(cat.Program, tr, L)
	if err != nil {
		return nil, err
	}
	defer drv.close()
	// Warm the driver's runtime as openWarm warms the handle: one
	// compile per target (an Expr memoizes it) and its preparation.
	plans := make([]*query.CanonicalPlan, len(cat.Targets))
	for i, tg := range cat.Targets {
		plan, err := tg.Node.Compile(drv.entry.DB)
		if err != nil {
			return nil, err
		}
		plans[i] = query.Canonicalize(plan)
		if _, _, _, err := drv.rt.PreparedPlan(drv.entry, plans[i], drv.opts); err != nil && !errors.Is(err, runtime.ErrNeedsProjection) {
			return nil, err
		}
		if !plans[i].NeedsProjection() {
			if rel, err := plans[i].Relation("derived"); err == nil {
				drv.probeRounding(rel, seed)
			}
		}
	}

	var sqlTexts []string
	start := time.Now()
	for k, s := range log {
		if time.Since(start) >= d/2 {
			break
		}
		r := warmRequest(cat, seed, s.i)
		pts, took, err := drv.warmRequest(ctx, cat, r, plans)
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", s.i, err)
		}
		L.replay(s, pointsHash(pts), took)
		if r.sql && len(sqlTexts) < 256 {
			sqlTexts = append(sqlTexts, r.sqlText(cat, warmN))
		}
		// Every 16th draw runs again, untimed, to count its allocations.
		if k%16 == 0 && cat.Targets[r.target].Kind != "projection" {
			ps, _, _, err := drv.rt.PreparedPlan(drv.entry, plans[r.target], drv.opts)
			if err == nil {
				err = drv.drawAllocs(ctx, ps, warmN, r.seed)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	L.stmtAllocs = sqlAllocs(drv.entry.DB, sqlTexts)
	return t, nil
}

// warmRequest replays one warm_draw request layer by layer.
func (d *driver) warmRequest(ctx context.Context, cat *catalog, r warmReq, plans []*query.CanonicalPlan) ([]linalg.Vector, time.Duration, error) {
	root := d.tr.begin(nil, "driver")
	cp, n, seed := plans[r.target], warmN, r.seed
	if r.sql {
		c, err := d.sqlCompile(root, r.sqlText(cat, warmN))
		if err != nil {
			return nil, 0, err
		}
		if cp, err = d.compile(root, c.Node); err != nil {
			return nil, 0, err
		}
		n, seed = c.N, c.Seed
	}
	ps, _, err := d.prepared(root, cp)
	var pts []linalg.Vector
	switch {
	case errors.Is(err, runtime.ErrNeedsProjection):
		pts, err = d.project(root, cp, n, seed)
	case err == nil:
		pts, err = d.draw(ctx, root, ps, n, seed)
	}
	return pts, root.end(), err
}

func tracedAdhoc(ctx context.Context, seed uint64, d time.Duration, tr *tracer, L *layerStats) (*tally, error) {
	src, bases := adhocProgram()
	stream := adhocStream(seed, bases, adhocStreamLen)
	h, err := openAdhoc(ctx, src, bases)
	if err != nil {
		return nil, err
	}
	before := h.db.CacheStats()
	var (
		t   *tally
		log []served
	)
	L.facadePhase(func() { t, log, err = runAdhoc(ctx, h, stream, d, true) })
	L.planCache(before, h.db.CacheStats())
	h.db.Close()
	if err != nil {
		return nil, err
	}

	drv, err := newDriver(src, tr, L)
	if err != nil {
		return nil, err
	}
	defer drv.close()
	for _, b := range bases {
		if _, _, _, err := drv.rt.PreparedFor(drv.entry, b.Name, "", drv.opts); err != nil {
			return nil, err
		}
	}
	var sqlTexts []string
	start := time.Now()
	probes := 0
	for _, s := range log {
		if time.Since(start) >= d/2 {
			break
		}
		hash, took, rel, err := drv.adhocRequest(ctx, stream[s.i])
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", stream[s.i].Text, err)
		}
		L.replay(s, hash, took)
		// Break every other cold preparation down into its rounding and
		// convex-preparation passes, outside the request.
		if rel != nil {
			if probes%2 == 0 {
				drv.probeRounding(rel, seed+uint64(s.i))
			}
			probes++
		}
		if len(sqlTexts) < 256 {
			sqlTexts = append(sqlTexts, stream[s.i].Text)
		}
	}
	L.stmtAllocs = sqlAllocs(drv.entry.DB, sqlTexts)
	return t, nil
}

// adhocRequest replays one statement layer by layer. For statements
// that prepared a sampler it also returns the prepared relation.
func (d *driver) adhocRequest(ctx context.Context, st statement) (uint64, time.Duration, *constraint.Relation, error) {
	root := d.tr.begin(nil, "driver")
	c, err := d.sqlCompile(root, st.Text)
	if err != nil {
		return 0, 0, nil, err
	}
	cp, err := d.compile(root, c.Node)
	if err != nil {
		return 0, 0, nil, err
	}
	var (
		hash     uint64
		prepared *constraint.Relation
	)
	switch c.Mode {
	case sqldialect.ModeSample, sqldialect.ModeVolume:
		var ps *runtime.Prepared
		var key string
		if ps, key, err = d.prepared(root, cp); err != nil {
			break
		}
		prepared, _ = cp.Relation("derived")
		if c.Mode == sqldialect.ModeSample {
			var pts []linalg.Vector
			pts, err = d.draw(ctx, root, ps, c.N, c.Seed)
			hash = pointsHash(pts)
			break
		}
		sp := d.tr.begin(root, "core")
		var v float64
		v, _, _, err = ps.VolumeWithAccuracy(ctx, runtime.PrepSeedFor(key+"\x1fvolume"))
		sp.end()
		hash = math.Float64bits(v)
	case sqldialect.ModeRelation:
		sp := d.tr.begin(root, "constraint")
		var se *runtime.SymbolicEntry
		se, _, _, err = d.rt.Symbolic(ctx, d.entry, query.SymbolicFromPlan(cp))
		d.note(&d.L.fmUS, us(sp.end()))
		if err != nil {
			break
		}
		d.L.mu.Lock()
		d.L.atomsIn += se.Stats.AtomsIn
		d.L.atomsOut += se.Stats.AtomsOut
		d.L.mu.Unlock()
		rel := &constraint.Relation{Name: se.Rel.Name, Vars: se.Rel.Vars, Tuples: se.Rel.Tuples}
		if len(rel.Vars) == len(c.Columns) {
			rel.Vars = c.Columns
		}
		hash = stringHash(rel.Source())
	case sqldialect.ModeExplain:
		// Expr.Explain's cache residency lookups.
		sp := d.tr.begin(root, "runtime")
		optsKey := d.opts.CacheKey()
		d.rt.Cache().Peek(runtime.PlanKey(d.entry.ID, cp.Key, optsKey))
		d.rt.SymbolicCache().Peek(runtime.SymbolicKey(d.entry.ID, cp.Key))
		for _, dk := range cp.DisjunctKeys() {
			d.rt.Cache().Peek(runtime.PlanKey(d.entry.ID, dk, optsKey))
		}
		_ = cp.Plan.Describe()
		sp.end()
		hash = stringHash(cp.Key)
	default:
		err = fmt.Errorf("unexpected mode %q", c.Mode)
	}
	return hash, root.end(), prepared, err
}

func tracedCluster(seed uint64, d time.Duration, tr *tracer, L *layerStats) (*tally, error) {
	cat := newCatalog(seed)
	oracles, err := clusterOracles(cat)
	if err != nil {
		return nil, err
	}
	c, err := openCluster(cat)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m0 := c.scrape()
	q0 := c.drawCosts()
	var (
		t   *tally
		log []clusterServed
	)
	L.facadePhase(func() { t, log, err = runCluster(c, cat, oracles, seed, d, true) })
	if err != nil {
		return nil, err
	}
	m1 := c.scrape()
	q1 := c.drawCosts()
	hits := m1["plan/hit"] + m1["plan/negative_hit"] - m0["plan/hit"] - m0["plan/negative_hit"]
	L.hitRatio = ratio(hits, hits+m1["plan/miss"]-m0["plan/miss"])
	L.evictions = m1["plan/eviction"] - m0["plan/eviction"]
	L.shed = m1["shed"] - m0["shed"]
	L.breakerOpen = m1["breaker_open"]
	L.queueUS = []float64{ratio(q1.queueNanos-q0.queueNanos, q1.draws-q0.draws) / 1e3}
	L.steps, L.oracle, L.points = int64(q1.steps-q0.steps), int64(q1.oracle-q0.oracle), int64(q1.samples-q0.samples)
	fwd := 0
	for _, s := range log {
		if s.forwarded {
			fwd++
		}
	}
	L.forwardedShare = ratio(float64(fwd), float64(len(log)))
	checkClusterVolumes(c, cat, oracles, t)

	parsed, err := constraint.Parse(cat.Program)
	if err != nil {
		return nil, err
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, clusterClients)
	)
	start := time.Now()
	for w := 0; w < clusterClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(log) && time.Since(start) < d/2; k = int(next.Add(1) - 1) {
				if errs[w] = c.replay(cat, seed, log[k].served, parsed, tr, L); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var sqlTexts []string
	for i := 0; len(sqlTexts) < 256 && i < len(log); i++ {
		r := clusterRequest(seed, log[i].i)
		if tpl := clusterCycle[r.tpl]; tpl.endpoint == "sql" {
			sqlTexts = append(sqlTexts, cat.Targets[tpl.target].sampleSQL(clusterN, r.seed))
		}
	}
	L.stmtAllocs = sqlAllocs(parsed, sqlTexts)
	return t, nil
}

// replay re-sends one facade-phase request along the same path (timed as
// the request), then probes it: straight at the owner, forwarded through
// another node, and through the owner's handler with a recorder.
func (c *clusterHandle) replay(cat *catalog, seed uint64, s served, parsed *constraint.Database, tr *tracer, L *layerStats) error {
	r := clusterRequest(seed, s.i)
	tpl := clusterCycle[r.tpl]
	owner := c.owners[r.tpl]
	timed := func(ingress int) (reply, time.Duration, error) {
		req, err := c.request(cat, c.nodes[ingress].url, tpl, clusterN, r.seed)
		if err != nil {
			return reply{}, 0, err
		}
		t0 := time.Now()
		rep, err := c.do(req)
		took := time.Since(t0)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		}
		return rep, took, err
	}
	rep, took, err := timed(c.ingress(r))
	if err != nil {
		return err
	}
	pts, err := points(rep.body)
	if err != nil {
		return err
	}
	L.replay(s, pointsHash(vectors(pts)), took)

	_, direct, err := timed(owner)
	if err != nil {
		return err
	}
	_, forward, err := timed((owner + 1) % len(c.nodes))
	if err != nil {
		return err
	}
	req, err := c.request(cat, c.nodes[owner].url, tpl, clusterN, r.seed)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.nodes[owner].handler.ServeHTTP(rec, req)
	handler := time.Since(t0)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("recorder: status %d", rec.Code)
	}
	recPts, err := points(rec.Body.Bytes())
	if err != nil {
		return err
	}
	if pointsHash(vectors(recPts)) != s.hash {
		return fmt.Errorf("request %d: handler answer differs from the served one", s.i)
	}
	var compile time.Duration
	if tpl.endpoint == "sql" {
		t0 := time.Now()
		if _, err := sqldialect.Compile(parsed, cat.Targets[tpl.target].sampleSQL(clusterN, r.seed)); err != nil {
			return err
		}
		compile = time.Since(t0)
	}
	L.mu.Lock()
	L.handlerUS = append(L.handlerUS, us(handler))
	L.directUS = append(L.directUS, us(direct))
	L.forwardUS = append(L.forwardUS, us(forward))
	L.respBytes = append(L.respBytes, float64(rec.Body.Len()))
	if tpl.endpoint == "sql" {
		L.compileUS = append(L.compileUS, us(compile))
	}
	L.mu.Unlock()
	tr.add("sql", compile)
	tr.add("server", handler-compile)
	tr.add("driver", direct-handler)
	tr.add("cluster", forward-direct)
	return nil
}

// scrape sums the cluster's /metrics counters the traced run reads:
// plan-cache events by outcome, admission sheds and open breakers.
func (c *clusterHandle) scrape() map[string]float64 {
	out := map[string]float64{}
	for _, n := range c.nodes {
		resp, err := c.client.Get(n.url + "/metrics")
		if err != nil {
			continue
		}
		body := new(strings.Builder)
		_, err = io.Copy(body, resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, line := range strings.Split(body.String(), "\n") {
			name, val, ok := metricLine(line)
			if !ok {
				continue
			}
			switch {
			case strings.HasPrefix(name, `cdbserve_cache_events_total{kind="plan"`):
				outcome := name[strings.Index(name, `outcome="`)+9:]
				out["plan/"+strings.TrimSuffix(outcome, `"}`)] += val
			case strings.HasPrefix(name, "cdbserve_cluster_shed_total"):
				out["shed"] += val
			case strings.HasPrefix(name, "cdbserve_cluster_breaker_open"):
				out["breaker_open"] += val
			}
		}
	}
	return out
}

// metricLine splits a Prometheus text line into series and value.
func metricLine(line string) (string, float64, bool) {
	if line == "" || line[0] == '#' {
		return "", 0, false
	}
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	return line[:i], v, err == nil
}

// costTotals sums the owners' runtime cost tables over plan keys.
type costTotals struct {
	draws, samples, queueNanos, steps, oracle float64
}

func (c *clusterHandle) drawCosts() costTotals {
	var t costTotals
	for _, n := range c.nodes {
		for _, s := range n.srv.Runtime().Costs().Each() {
			if strings.Contains(s.Key, "#") {
				continue // per-disjunct attribution repeats the key's total
			}
			t.draws += float64(s.Draws)
			t.samples += float64(s.Samples)
			t.queueNanos += float64(s.QueueNanos)
			t.steps += float64(s.WalkSteps)
			t.oracle += float64(s.OracleCalls)
		}
	}
	return t
}

// planCache records the facade's plan-cache hit ratio and evictions
// between two snapshots.
func (L *layerStats) planCache(a, b cdb.CacheStats) {
	hits := float64(b.Plan.Hits + b.Plan.NegativeHits - a.Plan.Hits - a.Plan.NegativeHits)
	L.hitRatio = ratio(hits, hits+float64(b.Plan.Misses-a.Plan.Misses))
	L.evictions = float64(b.Plan.Evictions - a.Plan.Evictions)
}

// sqlAllocs measures allocations per sqldialect.Compile of the given
// statements.
func sqlAllocs(db *constraint.Database, stmts []string) float64 {
	if len(stmts) == 0 {
		return 0
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for _, s := range stmts {
		_, _ = sqldialect.Compile(db, s)
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(stmts))
}

// perLayer renders every per-layer metric. A layer the workload does
// not reach reports 0.
func perLayer(L *layerStats, tr *tracer) map[string]metric {
	var total time.Duration
	for _, d := range tr.self {
		total += d
	}
	m := map[string]metric{
		"walk.steps_per_point":        {ratio(float64(L.steps), float64(L.points)), "count"},
		"walk.oracle_calls_per_point": {ratio(float64(L.oracle), float64(L.points)), "count"},
		"walk.ns_per_step":            {ratio(float64(L.walkNanos.Load()), float64(L.steps)), "ns"},
		"walk.allocs_per_point":       {ratio(L.allocs, L.allocPoints), "count"},
		"walk.bytes_per_point":        {ratio(L.allocBytes, L.allocPoints), "B"},
		"rounding.sandwich_ratio":     {median(L.sandwich), "ratio"},
		"rounding.round_ms":           {median(L.roundMS), "ms"},
		"core.accept_ratio":           {ratio(float64(L.accepts), float64(L.rounds)), "fraction"},
		"core.projection_ms":          {median(L.projectionMS), "ms"},
		"core.prepare_convex_ms":      {median(L.convexMS), "ms"},
		"core.volume_rel_err_p50":     {median(L.relErrs), "fraction"},
		"runtime.lookup_us":           {median(L.lookupUS), "us"},
		"runtime.bind_us":             {median(L.bindUS), "us"},
		"runtime.queue_us":            {median(L.queueUS), "us"},
		"runtime.prepare_ms":          {median(L.prepareMS), "ms"},
		"runtime.plan_hit_ratio":      {L.hitRatio, "fraction"},
		"runtime.plan_evictions":      {L.evictions, "count"},
		"constraint.fm_us":            {median(L.fmUS), "us"},
		"constraint.fm_atom_growth":   {ratio(float64(L.atomsOut), float64(L.atomsIn)), "ratio"},
		"query.canonicalize_us":       {median(L.canonUS), "us"},
		"sql.compile_us":              {median(L.compileUS), "us"},
		"sql.allocs_per_stmt":         {L.stmtAllocs, "count"},
		"server.handler_us":           {median(L.handlerUS), "us"},
		"server.net_us":               {max(0, median(L.directUS)-median(L.handlerUS)), "us"},
		"server.resp_bytes":           {median(L.respBytes), "B"},
		"cluster.forward_us":          {max(0, median(L.forwardUS)-median(L.directUS)), "us"},
		"cluster.forwarded_share":     {L.forwardedShare, "fraction"},
		"cluster.shed":                {L.shed, "count"},
		"cluster.breaker_open":        {L.breakerOpen, "count"},
		"go.gc_cpu_frac":              {L.gcFrac, "fraction"},
		"trace.overhead_pct":          {100 * ratio(float64(L.replayNanos-L.baseNanos), float64(L.baseNanos)), "%"},
		"trace.identical_frac":        {ratio(float64(L.identical), float64(L.replayed)), "fraction"},
	}
	for _, layer := range selfLayers {
		m[layer+".self_frac"] = metric{ratio(float64(tr.self[layer]), float64(total)), "fraction"}
	}
	layers := make([]string, 0, len(tr.self))
	for l := range tr.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		logf("self %-10s %10.1f ms %5.1f%%", l, ms(tr.self[l]), 100*ratio(float64(tr.self[l]), float64(total)))
	}
	return m
}
