package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// PreparedRelation is the paper's generator for a well-bounded
// generalized relation, split into preparation and binding: a DFK
// generator per non-empty tuple, joined by the union combinator of
// Theorem 4.1 / Corollary 4.2. Every tuple's rounding map,
// well-boundedness witnesses and volume estimate are computed once at
// preparation time, so binding a seed costs only walker initialisation.
// It is the one way a linear relation becomes a generator: a serving
// layer caches it per (relation, Options) and binds request seeds to it,
// a one-off caller prepares and binds once, and MedianVolume prepares it
// k times for k independent estimates.
type PreparedRelation struct {
	name    string
	members []*PreparedConvex
	weights []float64
	total   float64
	dim     int
	opts    Options

	// Bounding box of the (pruned) relation, captured at preparation
	// time: the deterministic seed of the quality layer's cell
	// partition.
	bboxLo, bboxHi linalg.Vector
	bboxOK         bool
}

// PrepareRelation runs the full setup for a well-bounded generalized
// relation: prune empty tuples, round every remaining tuple and estimate
// its volume (step 1 of Algorithm 1, normally repeated per generator).
// All randomness is drawn from r, so a fixed preparation seed yields a
// fixed prepared geometry.
func PrepareRelation(rel *constraint.Relation, r *rng.RNG, opts Options) (*PreparedRelation, error) {
	return PrepareRelationFanout(rel, r, opts, nil)
}

// MedianVolume amplifies the confidence of rel's volume estimate to
// 1−δ by the classical median powering behind Section 2's ln(1/δ)
// remark: k independent estimators run over fan (nil = one after
// another) and the median estimate is returned. Estimator i prepares rel
// and binds its generator from one RNG seeded baseSeed + 1000003·i, so no
// two share a preparation (k binds of one single-tuple preparation would
// all return its one preparation-time estimate), and the result is
// bit-identical at any fan-out width. With per-run failure probability
// 1/4, k = 18·ln(1/δ) pushes the failure probability of the median below
// δ; callers pick k directly to keep budgets explicit. opts.Interrupt,
// when set, stops every estimator's walks with its error.
func MedianVolume(rel *constraint.Relation, k int, baseSeed uint64, opts Options, fan *Fanout) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("core: MedianVolume needs k >= 1")
	}
	return medianOf(k, fan, func(i int) (float64, error) {
		r := rng.New(baseSeed + uint64(1000003*i))
		p, err := PrepareRelationFanout(rel, r, opts, fan)
		if err != nil {
			return 0, err
		}
		obs, err := p.Bind(r)
		if err != nil {
			return 0, err
		}
		return obs.Volume()
	})
}

// medianOf runs estimate(0), …, estimate(k−1) over fan and returns the
// median of the estimates that succeeded, provided they are a majority.
// Every estimator runs: a unit keeps its estimator's error and reports
// success, because fan stops starting units after a failing one.
func medianOf(k int, fan *Fanout, estimate func(i int) (float64, error)) (float64, error) {
	vals := make([]float64, k)
	errs := make([]error, k)
	if _, err := fan.each(k, func(i int) error {
		vals[i], errs[i] = estimate(i)
		return nil
	}); err != nil {
		return 0, err // a panicking estimator
	}
	ok := vals[:0]
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = append(ok, vals[i])
	}
	// The median is meaningful as long as a majority of runs succeeded.
	if len(ok) <= k/2 {
		return 0, fmt.Errorf("core: MedianVolume: %d/%d runs failed: %w", k-len(ok), k, firstErr)
	}
	sort.Float64s(ok)
	return ok[len(ok)/2], nil
}

// PrepareRelationFanout is PrepareRelation with the tuples, and each
// tuple's volume phases, spread over fan (nil = one after another).
// Every tuple's RNG is split from r up front in tuple order and the
// members are folded back in that order, so the prepared geometry is
// bit-identical at any width.
func PrepareRelationFanout(rel *constraint.Relation, r *rng.RNG, opts Options, fan *Fanout) (*PreparedRelation, error) {
	if err := opts.params().validate(); err != nil {
		return nil, err
	}
	pruned := rel.PruneEmpty()
	if len(pruned.Tuples) == 0 {
		return nil, fmt.Errorf("core: relation %q is empty", rel.Name)
	}
	p := &PreparedRelation{name: rel.Name, opts: opts, dim: pruned.Tuples[0].Dim()}
	p.bboxLo, p.bboxHi, p.bboxOK = pruned.BoundingBox()
	rs := make([]*rng.RNG, len(pruned.Tuples))
	for i := range rs {
		rs[i] = r.Split()
	}
	p.members = make([]*PreparedConvex, len(pruned.Tuples))
	failed, err := fan.each(len(p.members), func(i int) error {
		var err error
		p.members[i], err = prepareConvexPolytope(polytope.FromTuple(pruned.Tuples[i]), rs[i], opts, fan)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: relation %q tuple %d: %w", rel.Name, failed, err)
	}
	for _, pc := range p.members {
		p.weights = append(p.weights, pc.vol)
		p.total += pc.vol
	}
	if p.total <= 0 {
		return nil, fmt.Errorf("core: relation %q has zero total volume", rel.Name)
	}
	return p, nil
}

// Name returns the prepared relation's name.
func (p *PreparedRelation) Name() string { return p.name }

// Dim returns the ambient dimension.
func (p *PreparedRelation) Dim() int { return p.dim }

// Tuples returns the number of non-empty tuples under the union.
func (p *PreparedRelation) Tuples() int { return len(p.members) }

// MemberVolumes returns the per-tuple volume estimates μ̂_i computed at
// preparation time.
func (p *PreparedRelation) MemberVolumes() []float64 {
	out := make([]float64, len(p.weights))
	copy(out, p.weights)
	return out
}

// BoundingBox returns the axis-aligned bounding box of the prepared
// (pruned) relation, captured at preparation time; ok is false for an
// unbounded description.
func (p *PreparedRelation) BoundingBox() (lo, hi linalg.Vector, ok bool) {
	return p.bboxLo, p.bboxHi, p.bboxOK
}

// VolumeAccuracy reports the (ε, δ) ledger of the preparation-time
// volume passes: the worst member's achieved ε, with caps and probes
// accumulated. A multi-tuple relation's bound Union adds its own
// acceptance pass on top (see Union.VolumeAccuracy).
func (p *PreparedRelation) VolumeAccuracy() (VolumeAccuracy, bool) {
	var out VolumeAccuracy
	any := false
	for _, pc := range p.members {
		a, ok := pc.VolumeAccuracy()
		if !ok {
			continue
		}
		if !any {
			out = a
			any = true
			continue
		}
		if a.AchievedEps > out.AchievedEps {
			out.AchievedEps = a.AchievedEps
		}
		out.Capped = out.Capped || a.Capped
		out.Probes += a.Probes
	}
	return out, any
}

// ScaleMemberWeight multiplies member i's cached volume estimate by
// factor, skewing the mixture weights every later Bind hands to the
// union generator. This is a fault-injection hook for the quality
// auditor's tests — a deliberately biased sampler whose draws are
// still inside the relation but no longer uniform — and must never be
// called on a production path.
func (p *PreparedRelation) ScaleMemberWeight(i int, factor float64) {
	if i < 0 || i >= len(p.members) || factor <= 0 {
		return
	}
	p.members[i].vol *= factor
	p.weights[i] = p.members[i].vol
	p.total = 0
	for _, w := range p.weights {
		p.total += w
	}
}

// PreparedVolume returns the preparation-time volume estimate when it
// is already the whole relation's estimate — a single-tuple relation,
// where no union-acceptance pass is needed. Multi-tuple unions report
// ok = false: their total must be corrected for overlap by the
// Karp–Luby acceptance pass of a bound Observable.
func (p *PreparedRelation) PreparedVolume() (v float64, ok bool) {
	if len(p.members) == 1 && p.members[0].volKnown {
		return p.members[0].vol, true
	}
	return 0, false
}

// BindMember instantiates a generator for the i-th non-empty tuple
// alone — the per-disjunct view a reconstruction needs (Algorithm 5
// builds one hull per convex piece, not one hull over the union).
func (p *PreparedRelation) BindMember(i int, r *rng.RNG) (Observable, error) {
	if i < 0 || i >= len(p.members) {
		return nil, fmt.Errorf("core: relation %q has no tuple %d", p.name, i)
	}
	return p.members[i].Bind(r)
}

// Bind instantiates an Observable over the prepared geometry with its
// own randomness: one walker per tuple plus the union combinator with
// the cached member weights. Cost is O(tuples · d) — no rounding, no
// volume passes.
func (p *PreparedRelation) Bind(r *rng.RNG) (Observable, error) {
	return p.BindInterrupt(r, p.opts.Interrupt)
}

// BindCtx is Bind with every hot loop of the returned Observable —
// walk epochs, union acceptance rounds, volume passes — polling ctx, so
// an in-flight Sample or Volume call aborts with ctx.Err() within one
// walk epoch of cancellation. The RNG stream is identical to Bind's:
// the same seed produces the same points, cancellable or not.
func (p *PreparedRelation) BindCtx(ctx context.Context, r *rng.RNG) (Observable, error) {
	if ctx == nil || ctx.Done() == nil {
		return p.Bind(r)
	}
	return p.BindInterrupt(r, ctx.Err)
}

// BindInterrupt is Bind with an explicit interrupt hook (nil = none).
func (p *PreparedRelation) BindInterrupt(r *rng.RNG, interrupt func() error) (Observable, error) {
	members := make([]Observable, 0, len(p.members))
	for i, pc := range p.members {
		c, err := pc.BindInterrupt(r.Split(), interrupt)
		if err != nil {
			return nil, fmt.Errorf("core: binding tuple %d of %q: %w", i, p.name, err)
		}
		members = append(members, c)
	}
	if len(members) == 1 {
		return members[0], nil
	}
	// Member volumes are already cached on the bound Convex instances, so
	// NewUnion's eager weighting pass costs nothing here.
	opts := p.opts
	opts.Interrupt = interrupt
	return NewUnion(members, r.Split(), opts)
}
