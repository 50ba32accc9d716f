package runtime

import (
	"context"
	"sync"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// Prepared is the cache-friendly form of a relation sampler: the
// expensive setup (per-tuple rounding, well-boundedness witnesses and
// volume estimation) is paid once by Prepare, and NewObservable then
// binds request seeds to the warm geometry for the cost of a walker
// initialisation. A Prepared is safe for concurrent use — binds create
// independent generators — and is what the sampler cache stores.
//
// The cdb package re-exports this type as cdb.PreparedSampler.
type Prepared struct {
	prep *core.PreparedRelation
	opts core.Options
}

// Prepare runs the full sampler setup for a well-bounded relation under
// a fixed preparation seed. The prepared geometry (and therefore every
// volume estimate and every sample stream drawn from it) is
// deterministic in (rel, prepSeed, opts). A per-call Interrupt hook in
// opts is stripped: cancellation is a per-request concern and must
// never be baked into geometry shared across requests.
//
// fan spreads the relation's tuples and volume phases over idle CPUs
// without changing a bit of the result (see core.Fanout); a Runtime
// passes its own, bounded at Config.PoolSize slots, and nil prepares
// one unit after another.
func Prepare(rel *constraint.Relation, prepSeed uint64, opts core.Options, fan *core.Fanout) (*Prepared, error) {
	opts.Interrupt = nil
	p, err := core.PrepareRelationFanout(rel, rng.New(prepSeed), opts, fan)
	if err != nil {
		return nil, err
	}
	return &Prepared{prep: p, opts: opts}, nil
}

// NewObservable binds a sampling seed to the prepared geometry and
// returns an independent generator/estimator. Calls with the same seed
// return generators producing identical streams.
func (p *Prepared) NewObservable(seed uint64) (core.Observable, error) {
	return p.prep.Bind(rng.New(seed))
}

// NewObservableCtx is NewObservable with ctx polled inside every hot
// loop of the returned generator, so in-flight Sample and Volume calls
// abort with ctx.Err() within one walk epoch of cancellation. The
// sample stream for a given seed is identical to NewObservable's.
func (p *Prepared) NewObservableCtx(ctx context.Context, seed uint64) (core.Observable, error) {
	return p.prep.BindCtx(ctx, rng.New(seed))
}

// Dim returns the ambient dimension.
func (p *Prepared) Dim() int { return p.prep.Dim() }

// Tuples returns the number of non-empty tuples under the union.
func (p *Prepared) Tuples() int { return p.prep.Tuples() }

// BoundingBox returns the prepared relation's axis-aligned bounding
// box (ok = false for an unbounded description) — the deterministic
// seed of the quality layer's cell partition.
func (p *Prepared) BoundingBox() (lo, hi linalg.Vector, ok bool) {
	return p.prep.BoundingBox()
}

// MemberVolumes returns the per-tuple preparation-time volume
// estimates μ̂_i.
func (p *Prepared) MemberVolumes() []float64 { return p.prep.MemberVolumes() }

// VolumeAccuracy reports the (ε, δ) ledger of the preparation-time
// volume passes.
func (p *Prepared) VolumeAccuracy() (core.VolumeAccuracy, bool) {
	return p.prep.VolumeAccuracy()
}

// ScaleMemberWeight skews the prepared mixture weights — a
// fault-injection hook for quality-audit tests only (see
// core.PreparedRelation.ScaleMemberWeight).
func (p *Prepared) ScaleMemberWeight(i int, factor float64) {
	p.prep.ScaleMemberWeight(i, factor)
}

// NewMemberObservable binds a seed to the i-th non-empty tuple alone —
// the per-convex-piece generator reconstruction builds hulls from.
func (p *Prepared) NewMemberObservable(i int, seed uint64) (core.Observable, error) {
	return p.prep.BindMember(i, rng.New(seed))
}

// Volume returns the relation's volume estimate from the warm geometry.
// Single-tuple relations surface the preparation-time estimate directly
// — no observable is bound, no walker initialised — because the
// per-tuple estimate is already the whole relation's estimate. Unions
// bind seed for the Karp–Luby acceptance pass that corrects overlap.
func (p *Prepared) Volume(seed uint64) (float64, error) {
	return p.VolumeCtx(context.Background(), seed)
}

// VolumeCtx is Volume with cooperative cancellation of the acceptance
// pass (the single-tuple fast path never blocks and ignores ctx).
func (p *Prepared) VolumeCtx(ctx context.Context, seed uint64) (float64, error) {
	if v, ok := p.prep.PreparedVolume(); ok {
		return v, nil
	}
	obs, err := p.prep.BindCtx(ctx, rng.New(seed))
	if err != nil {
		return 0, err
	}
	return obs.Volume()
}

// VolumeWithAccuracy is VolumeCtx returning the estimate's (ε, δ)
// ledger alongside it: for single-tuple relations the preparation-time
// ledger, for unions the bound estimator's acceptance pass folded with
// the worst member pass. accOK is false when no ledger is available.
func (p *Prepared) VolumeWithAccuracy(ctx context.Context, seed uint64) (v float64, acc core.VolumeAccuracy, accOK bool, err error) {
	if v, ok := p.prep.PreparedVolume(); ok {
		acc, accOK = p.prep.VolumeAccuracy()
		return v, acc, accOK, nil
	}
	o, err := p.prep.BindCtx(ctx, rng.New(seed))
	if err != nil {
		return 0, core.VolumeAccuracy{}, false, err
	}
	v, err = o.Volume()
	if err != nil {
		return 0, core.VolumeAccuracy{}, false, err
	}
	acc, accOK = core.VolumeAccuracyOf(o)
	return v, acc, accOK, nil
}

// SampleMany draws n samples with w parallel workers from the warm
// geometry; worker i owns seed baseSeed+7919·i and the indices ≡ i
// (mod w), so the output is deterministic in (n, w, baseSeed).
func (p *Prepared) SampleMany(n, w int, baseSeed uint64) ([]linalg.Vector, error) {
	return core.SampleMany(p.NewObservable, n, w, baseSeed)
}

// DrawStats is the measured effort of one batched draw: per-seed bind
// count and time, cumulative pool queue wait, the aggregated generator
// effort, and — when the bound generators are unions — the per-member
// (per-disjunct) effort split the executor attributes to "key#i".
type DrawStats struct {
	Binds      int64
	BindNanos  int64
	QueueNanos int64
	Total      core.SampleStats
	Members    []core.SampleStats
	// MemberDraws counts accepted draws per canonical union member,
	// aggregated across the bound generators — the observed mixture the
	// quality tracker compares against exact volume shares.
	MemberDraws []int64
}

// SampleManyObserved is SampleMany scheduled through submit, with
// cooperative cancellation (workers poll ctx between samples and the
// bound generators poll it inside their walk epochs) and effort
// measurement: binds are timed, queue waits measured, and after the
// draw the bound generators' walk/rejection counters are aggregated
// into ds. The sample stream is identical to SampleMany's for the same
// arguments when the context never fires. ds must be non-nil and
// unshared until the call returns.
func (p *Prepared) SampleManyObserved(ctx context.Context, submit core.Submitter, n, w int, baseSeed uint64, ds *DrawStats) ([]linalg.Vector, error) {
	var mu sync.Mutex
	var bound []core.Observable
	factory := func(seed uint64) (core.Observable, error) {
		t0 := time.Now()
		o, err := p.NewObservableCtx(ctx, seed)
		dt := time.Since(t0).Nanoseconds()
		mu.Lock()
		ds.Binds++
		ds.BindNanos += dt
		if err == nil {
			bound = append(bound, o)
		}
		mu.Unlock()
		return o, err
	}
	timedSubmit := func(fn func()) {
		queued := time.Now()
		submit(func() {
			wait := time.Since(queued).Nanoseconds()
			mu.Lock()
			ds.QueueNanos += wait
			mu.Unlock()
			fn()
		})
	}
	pts, err := core.SampleManyCtx(ctx, timedSubmit, factory, n, w, baseSeed)
	// SampleManyCtx waits for every worker before returning, so the
	// bound generators' counters are quiescent here.
	for _, o := range bound {
		ds.Total.Merge(core.EffortOf(o))
		if u, ok := o.(*core.Union); ok {
			for i, md := range u.MemberDraws() {
				for len(ds.MemberDraws) <= i {
					ds.MemberDraws = append(ds.MemberDraws, 0)
				}
				ds.MemberDraws[i] += md
			}
			for i := 0; i < u.Members(); i++ {
				for len(ds.Members) <= i {
					ds.Members = append(ds.Members, core.SampleStats{})
				}
				ds.Members[i].Merge(u.MemberEffort(i))
			}
		} else {
			if len(ds.Members) == 0 {
				ds.Members = append(ds.Members, core.SampleStats{})
			}
			ds.Members[0].Merge(core.EffortOf(o))
		}
	}
	return pts, err
}

// CacheKey fingerprints the options the prepared geometry was built
// with; combined with a database id, relation name and preparation seed
// it uniquely identifies the prepared sampler.
func (p *Prepared) CacheKey() string { return p.opts.CacheKey() }

// Options returns the options the geometry was prepared with.
func (p *Prepared) Options() core.Options { return p.opts }
