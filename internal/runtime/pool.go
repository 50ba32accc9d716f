package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/quality"
)

// Pool is a fixed-size worker pool. Every batched sample draw runs its
// worker chunks on it, so the concurrency of batched sampling is bounded
// by the pool size no matter how many requests are in flight —
// concurrent requests are coalesced onto the same workers instead of
// each spawning their own. (Single-walker paths — query sampling,
// reconstruction — run one sequential walk on their caller's goroutine
// and are bounded by the caller's own concurrency.)
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
	size int
	sink obs.Sink

	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
}

// NewPoolWithSink starts size workers (minimum 1) reporting to an
// obs.Sink (may be nil).
func NewPoolWithSink(size int, sink obs.Sink) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{jobs: make(chan func()), size: size, sink: sink}
	for i := 0; i < size; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				if p.sink != nil {
					p.sink.BatchJob()
				}
				runJob(fn)
			}
		}()
	}
	return p
}

// runJob shields the worker from a panicking job: handler goroutines are
// recovered per-connection by net/http, but a bare pool goroutine would
// take the whole process down. The job's own waiters see the failure
// through their error slots (core.SampleManyCtx converts worker panics to
// errors); the recover here is the process-level backstop.
func runJob(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

// Submit schedules fn on the pool, blocking until a worker accepts it.
// After Close, fn runs synchronously on the caller instead — a request
// that raced a shutdown still completes rather than panicking on the
// closed channel.
func (p *Pool) Submit(fn func()) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		fn()
		return
	}
	// Hold the read lock across the send so Close cannot close the
	// channel between the check and the send.
	defer p.mu.RUnlock()
	p.jobs <- fn
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Close stops the workers after draining queued jobs. Submitters that
// already passed the closed check finish their sends first (the workers
// keep consuming until the channel drains).
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		close(p.jobs)
		p.mu.Unlock()
	})
	p.wg.Wait()
}

// Executor is the batch executor for sample requests. It does two
// things on top of the raw pool:
//
//   - every request's worker chunks run on the shared pool (bounded
//     concurrency, same deterministic output as Prepared.SampleMany), and
//   - byte-identical concurrent requests — same prepared sampler, n,
//     workers and seed — are coalesced into a single draw whose result
//     every caller shares.
type Executor struct {
	pool *Pool

	mu       sync.Mutex
	inflight map[string]*draw

	sink obs.Sink
	// costs, when non-nil, receives the measured effort of every
	// executed draw under the draw's sampler key (and "key#i" for each
	// union member). A coalesced waiter records only its Coalesced
	// count — the draw's effort ran once, so it is counted once, by the
	// caller that executed it.
	costs *obs.Costs
	// quality, when non-nil, accumulates the draw's points and member
	// shares into the per-sampler statistical diagnostics.
	quality *quality.Tracker
}

type draw struct {
	ready chan struct{}
	pts   []linalg.Vector
	err   error
}

// NewExecutorWithSink returns an executor over the given pool reporting
// to an obs.Sink (may be nil).
func NewExecutorWithSink(pool *Pool, sink obs.Sink) *Executor {
	return newExecutor(pool, sink, nil)
}

// newExecutor is NewExecutorWithSink with a cost table (either may be
// nil).
func newExecutor(pool *Pool, sink obs.Sink, costs *obs.Costs) *Executor {
	return &Executor{pool: pool, inflight: map[string]*draw{}, sink: sink, costs: costs}
}

// SampleManyCtx draws n points from ps with w logical workers and base
// seed seed, deterministically identical to ps.SampleMany(n, w, seed).
// samplerKey identifies the prepared sampler (the cache key); coalesced
// reports that the result was shared with an identical in-flight draw.
// The draw's workers poll ctx between samples and inside every walk
// epoch, and a coalesced waiter stops waiting when its own ctx is
// cancelled. The shared draw runs under the initiating request's ctx;
// if the initiator cancels while a coalesced waiter's ctx is still
// live, that waiter does not inherit the cancellation — it re-enters
// and runs the draw itself (output unchanged: the result is
// deterministic in the seed). Workers always return to the pool — a
// cancelled batch cannot leak pool capacity.
func (e *Executor) SampleManyCtx(ctx context.Context, samplerKey string, ps *Prepared, n, w int, seed uint64) (pts []linalg.Vector, coalesced bool, err error) {
	key := fmt.Sprintf("%s|n=%d|w=%d|seed=%d", samplerKey, n, w, seed)
	ctx, span := obs.Start(ctx, "sample.batch")
	defer span.End()
	span.SetKey(samplerKey)
	span.Set("n", int64(n))
	span.Set("workers", int64(w))
	for {
		e.mu.Lock()
		d, ok := e.inflight[key]
		if !ok {
			d = &draw{ready: make(chan struct{})}
			e.inflight[key] = d
			e.mu.Unlock()
			// Whether this caller is the first arrival or a waiter that
			// took over a cancelled draw, it did the work itself:
			// coalesced=false, and no CoalescedDraw event — the metric
			// and the response field report only actual work-sharing.
			pts, err := e.runDraw(ctx, key, samplerKey, d, ps, n, w, seed, span)
			return pts, false, err
		}
		e.mu.Unlock()
		select {
		case <-d.ready:
			if d.err != nil && isContextErr(d.err) && ctx.Err() == nil {
				// The initiator was cancelled, not us: take over. The
				// dead draw is already out of the inflight map (runDraw
				// unregisters before signalling ready), so the next loop
				// iteration either joins a fresh draw or initiates one.
				continue
			}
			if e.sink != nil {
				e.sink.CoalescedDraw()
			}
			span.Set("coalesced", 1)
			e.costs.For(samplerKey).Coalesced.Add(1)
			return d.pts, true, d.err
		case <-ctx.Done():
			// Nothing was shared with this caller either.
			return nil, false, ctx.Err()
		}
	}
}

// runDraw executes one batched draw and publishes the result. The
// inflight slot is unregistered before ready is signalled, so waiters
// that decide to retry never re-join this finished draw. The defer
// releases waiters even if the draw panics on this goroutine, mirroring
// Cache.Get — otherwise every coalesced waiter would block forever.
//
// The draw's measured effort — bind and queue-wait time, walk steps,
// oracle calls, rejection rounds — lands in the cost table under
// samplerKey, with per-union-member attribution under "samplerKey#i",
// and on the surrounding span when one is active.
func (e *Executor) runDraw(ctx context.Context, key, samplerKey string, d *draw, ps *Prepared, n, w int, seed uint64, span *obs.Span) ([]linalg.Vector, error) {
	finished := false
	defer func() {
		if !finished {
			d.err = errors.New("runtime: batched draw panicked")
		}
		e.mu.Lock()
		delete(e.inflight, key)
		e.mu.Unlock()
		close(d.ready)
	}()
	var ds DrawStats
	start := time.Now()
	d.pts, d.err = ps.SampleManyObserved(ctx, e.pool.Submit, n, w, seed, &ds)
	elapsed := time.Since(start).Nanoseconds()
	finished = true
	e.recordDraw(samplerKey, len(d.pts), elapsed, &ds, span)
	e.recordQuality(samplerKey, ps, d.pts, &ds)
	return d.pts, d.err
}

// recordQuality folds one executed draw into the statistical
// diagnostics: the first draw of a sampler registers its bounding-box
// partition, every draw adds cell counts, member shares and mixing
// effort. Hot-path cost when quality is nil (or the box unbounded):
// one nil check.
func (e *Executor) recordQuality(samplerKey string, ps *Prepared, pts []linalg.Vector, ds *DrawStats) {
	if e.quality == nil {
		return
	}
	lo, hi, ok := ps.BoundingBox()
	if !ok {
		return
	}
	e.quality.Bind(samplerKey, lo, hi, ps.MemberVolumes())
	eff := quality.Effort{
		WalkSteps:      ds.Total.WalkSteps,
		WalkAccepted:   ds.Total.WalkAccepted,
		OracleCalls:    ds.Total.OracleCalls,
		InterruptPolls: ds.Total.InterruptPolls,
		Rounds:         ds.Total.Rounds,
		Accepts:        ds.Total.Accepts,
		RoundsHist:     ds.Total.RoundsHist,
		MemberDraws:    ds.MemberDraws,
	}
	e.quality.ObserveDraw(samplerKey, pts, eff)
}

// recordDraw attributes one executed draw's effort to the cost table
// and the active span.
func (e *Executor) recordDraw(samplerKey string, samples int, elapsedNanos int64, ds *DrawStats, span *obs.Span) {
	c := e.costs.For(samplerKey)
	c.Draws.Add(1)
	c.Samples.Add(int64(samples))
	c.SampleNanos.Add(elapsedNanos)
	c.QueueNanos.Add(ds.QueueNanos)
	c.Binds.Add(ds.Binds)
	c.BindNanos.Add(ds.BindNanos)
	addSampleStats(c, ds.Total)
	for i, ms := range ds.Members {
		if ms.IsZero() {
			continue
		}
		mc := e.costs.For(fmt.Sprintf("%s#%d", samplerKey, i))
		addSampleStats(mc, ms)
	}
	if span != nil {
		span.Add("samples", int64(samples))
		span.Add("binds", ds.Binds)
		span.Add("bind_nanos", ds.BindNanos)
		span.Add("queue_nanos", ds.QueueNanos)
		span.Add("walk_steps", ds.Total.WalkSteps)
		span.Add("walk_accepted", ds.Total.WalkAccepted)
		span.Add("oracle_calls", ds.Total.OracleCalls)
		span.Add("interrupt_polls", ds.Total.InterruptPolls)
		span.Add("rounds", ds.Total.Rounds)
		span.Add("accepts", ds.Total.Accepts)
	}
}

// addSampleStats merges a core.SampleStats into a cost cell.
func addSampleStats(c *obs.Cost, s core.SampleStats) {
	c.WalkSteps.Add(s.WalkSteps)
	c.WalkAccepted.Add(s.WalkAccepted)
	c.OracleCalls.Add(s.OracleCalls)
	c.InterruptPolls.Add(s.InterruptPolls)
	c.Rounds.Add(s.Rounds)
	c.Accepts.Add(s.Accepts)
}

// isContextErr reports a cancellation/deadline error — the only errors
// a coalesced waiter refuses to share, because they belong to the
// initiating request, not to the draw.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
