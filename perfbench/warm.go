package main

// warm_draw: one closed-loop client drawing seeded 64-point samples from
// a warm catalog through the public facade — three quarters as Expr
// terminals, a quarter as `SAMPLE 64 SEED k` SQL text. Every request is a
// prepared-cache hit, so walk, oracle and executor do nearly all the
// work. The ∃-projection has no cacheable sampler and re-runs
// Algorithm 2 per call; it is scheduled rarely enough to stay under a
// quarter of the run's time.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cdb "repro"
	"repro/internal/linalg"
)

const warmN = 64

// warmCycle is the draw order over catalog indices (K2, T, P, D, K3,
// K3, K4, (A∪C)∩B, K6): K3 appears twice so the median falls inside
// one target's distribution rather than on the boundary between two.
var warmCycle = []int{0, 7, 4, 5, 1, 1, 2, 6, 3}

// warmProjectionEvery schedules one ∃-projection per this many draws:
// ~0.5% of requests, ~15% of the time, and far enough below 1% that
// the 99th percentile stays inside the K6 draws.
const warmProjectionEvery = 181

// warmReq is one warm_draw request.
type warmReq struct {
	target int
	sql    bool
	seed   uint64
}

// warmRequest returns request i of seed's schedule.
func warmRequest(cat *catalog, seed uint64, i int) warmReq {
	t := warmCycle[i%len(warmCycle)]
	if i%warmProjectionEvery == warmProjectionEvery-1 {
		t = len(cat.Targets) - 1
	}
	return warmReq{
		target: t,
		sql:    i%4 == 3 && cat.Targets[t].SQL != "",
		seed:   mix(seed, uint64(i)) >> 16,
	}
}

// sqlText renders a request's SQL form.
func (r warmReq) sqlText(cat *catalog, n int) string {
	return cat.Targets[r.target].sampleSQL(n, r.seed)
}

// mix is splitmix64 of (seed, i): per-request draw seeds.
func mix(seed, i uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// warmHandle is a warmed facade handle over the catalog.
type warmHandle struct {
	db    *cdb.DB
	exprs []*cdb.Expr
}

// warmOrder lists catalog indices by falling preparation cost (K6,
// (A∪C)∩B, K4, P, D, K3, T, K2, ∃x2.K3), so two warmers finish together.
var warmOrder = []int{3, 6, 2, 4, 5, 1, 7, 0, 8}

// openWarm opens the catalog and prepares every cacheable target with
// two warmers: preparation is CPU-bound and there are two CPUs.
func openWarm(ctx context.Context, cat *catalog) (*warmHandle, error) {
	db, err := cdb.Open(cat.Program)
	if err != nil {
		return nil, fmt.Errorf("open catalog: %w", err)
	}
	h := &warmHandle{db: db}
	for _, tg := range cat.Targets {
		h.exprs = append(h.exprs, tg.Expr(db))
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, len(warmOrder))
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(warmOrder); k = int(next.Add(1) - 1) {
				i := warmOrder[k]
				if _, err := h.exprs[i].Sampler(ctx); err != nil && !errors.Is(err, cdb.ErrNeedsProjection) {
					errs[k] = fmt.Errorf("prepare %s: %w", cat.Targets[i].Name, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		db.Close()
		return nil, err
	}
	return h, nil
}

// draw serves one request through the facade.
func (h *warmHandle) draw(ctx context.Context, cat *catalog, r warmReq) ([]linalg.Vector, error) {
	if r.sql {
		res, err := h.db.ExecSQL(ctx, r.sqlText(cat, warmN))
		if err != nil {
			return nil, err
		}
		return res.Points, nil
	}
	return h.exprs[r.target].SampleNSeeded(ctx, warmN, r.seed)
}

// setupRepeated runs setup k times, keeps the last result, closes the
// others and returns every setup's duration in seconds.
func setupRepeated[T any](k int, setup func() (T, error), closeFn func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < k; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 {
				closeFn(last)
			}
			return v, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 {
			closeFn(last)
		}
		last = v
	}
	return last, secs, nil
}

// served records one facade request for the traced replay.
type served struct {
	i       int
	latency time.Duration
	hash    uint64
}

// runWarm is the untraced facade loop; it returns the run's tally and,
// when keep is set, a record per successful request.
func runWarm(ctx context.Context, h *warmHandle, cat *catalog, oracles []*oracle, seed uint64, d time.Duration, keep bool) (*tally, []served) {
	t := &tally{}
	var log []served
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		r := warmRequest(cat, seed, i)
		t0 := time.Now()
		pts, err := h.draw(ctx, cat, r)
		lat := time.Since(t0)
		if err == nil {
			err = oracles[r.target].checkPoints(pts, warmN)
		}
		t.record(i, lat, len(pts), cat.Targets[r.target].Name, err)
		if err == nil && keep {
			log = append(log, served{i: i, latency: lat, hash: pointsHash(pts)})
		}
	}
	return t, log
}

// warmOracles computes every target's exact relation.
func warmOracles(h *warmHandle, cat *catalog) ([]*oracle, error) {
	var out []*oracle
	for _, tg := range cat.Targets {
		o, err := oracleOf(h.db.Database(), tg.Node)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", tg.Name, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// checkWarmVolumes compares each target's warm volume answer with its
// exact volume (untimed, after the measured window).
func checkWarmVolumes(ctx context.Context, h *warmHandle, cat *catalog, oracles []*oracle, t *tally) {
	eps := h.db.Options().Params.Eps
	for i, e := range h.exprs {
		exact, err := oracles[i].volume()
		if err != nil {
			t.volumeFail("exact volume "+cat.Targets[i].Name, err)
			continue
		}
		v, err := e.Volume(ctx)
		if err != nil {
			t.volumeFail("volume "+cat.Targets[i].Name, err)
			continue
		}
		t.volume(v, exact, eps)
	}
}

func warmDraw(ctx context.Context, seed uint64, d time.Duration) (*result, error) {
	cat := newCatalog(seed)
	h, setups, err := setupRepeated(setupRepeats, func() (*warmHandle, error) { return openWarm(ctx, cat) },
		func(h *warmHandle) { h.db.Close() })
	if err != nil {
		return nil, err
	}
	defer h.db.Close()
	oracles, err := warmOracles(h, cat)
	if err != nil {
		return nil, err
	}
	t, _ := runWarm(ctx, h, cat, oracles, seed, d, false)
	checkWarmVolumes(ctx, h, cat, oracles, t)
	return finish(t, 1, warmProjectionEvery, 0.99, setups), nil
}
