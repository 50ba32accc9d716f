package runtime

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/spacetime"
)

// PreparedAlibi is the warm form of an alibi query "could A and B have
// met during [t0, t1]?": the meet region, its exact Fourier–Motzkin
// meeting-time intervals and the prepared volume observable over the
// non-degenerate part of the region, all computed once. Replays only
// bind seeds — the region construction, the elimination pass and the
// rounding/volume setup are never repeated for the same
// (database, a, b, t0, t1, options) key.
type PreparedAlibi struct {
	times        []spacetime.Interval
	window       spacetime.Interval
	regionTuples int
	prunedTuples int
	fat          *constraint.Relation // the region without degenerate tuples
	prep         *Prepared            // nil when every region tuple is degenerate
	fan          *core.Fanout         // the preparation's fan-out, reused by Report's k > 1
	eps, delta   float64
}

func alibiCacheName(a, b string, t0, t1 float64) string {
	return a + "\x1e" + b + "@" + strconv.FormatFloat(t0, 'g', -1, 64) + ":" + strconv.FormatFloat(t1, 'g', -1, 64)
}

// AlibiKey is the cache key PreparedAlibi stores under — exported for
// the cluster routing layer. optsKey is Options.CacheKey().
func AlibiKey(dbID, a, b string, t0, t1 float64, optsKey string) string {
	return SamplerKey(dbID, "alibi", alibiCacheName(a, b, t0, t1), optsKey)
}

// PreparedAlibi returns the cached alibi preparation for (a, b, [t0, t1]),
// building it on first use.
func (rt *Runtime) PreparedAlibi(e *DatabaseEntry, aName, bName string, t0, t1 float64, opts core.Options) (*PreparedAlibi, bool, error) {
	key := AlibiKey(e.ID, aName, bName, t0, t1, opts.CacheKey())
	pa, hit, err := rt.alibis.Get(key, func() (*PreparedAlibi, error) {
		relA, err := spacetimeRelation(e, aName)
		if err != nil {
			return nil, fmt.Errorf("a: %w", err)
		}
		relB, err := spacetimeRelation(e, bName)
		if err != nil {
			return nil, fmt.Errorf("b: %w", err)
		}
		start := time.Now()
		pa, err := PrepareAlibi(relA, relB, t0, t1, PrepSeedFor(key), opts, rt.fan)
		if err == nil {
			c := rt.costs.For(key)
			c.Preps.Add(1)
			c.PrepNanos.Add(time.Since(start).Nanoseconds())
		}
		return pa, err
	})
	return pa, hit, err
}

// PrepareAlibi runs the full alibi setup: meet region construction, the
// exact Fourier–Motzkin meeting-time elimination, degenerate-tuple
// pruning and — when the region has positive measure — the prepared
// sampler over it under prepSeed, its units spread over fan (see
// Prepare).
func PrepareAlibi(relA, relB *constraint.Relation, t0, t1 float64, prepSeed uint64, opts core.Options, fan *core.Fanout) (*PreparedAlibi, error) {
	timeCol := spacetime.TimeColumn(relA)
	region, err := spacetime.MeetRegion(relA, relB, timeCol, t0, t1)
	if err != nil {
		return nil, err
	}
	times := spacetime.MeetTimesOf(region, timeCol)
	p := opts.Params
	if p.Gamma == 0 && p.Eps == 0 && p.Delta == 0 {
		p = core.DefaultParams()
	}
	pa := &PreparedAlibi{
		times:  times,
		window: spacetime.Interval{Lo: t0, Hi: t1},
		fan:    fan,
		eps:    p.Eps,
		delta:  p.Delta,
	}
	pa.fat, pa.prunedTuples = spacetime.PruneThin(region, 0)
	pa.regionTuples = len(pa.fat.Tuples)
	if pa.regionTuples == 0 {
		return pa, nil
	}
	prep, err := Prepare(pa.fat, prepSeed, opts, fan)
	if err != nil {
		return nil, fmt.Errorf("runtime: alibi meet-region preparation: %w", err)
	}
	pa.prep = prep
	return pa, nil
}

// Report binds seed to the warm meet-region geometry and returns the
// two-sided alibi verdict. k > 1 amplifies the meeting-volume
// confidence with core.MedianVolume over the pruned meet region: k
// independent preparations seeded from seed, run over the fan-out the
// region was prepared with, whose walks stop when ctx is cancelled.
// The warm preparation serves k <= 1 only, because k binds of a
// single-tuple region would all return its one preparation-time
// estimate.
func (pa *PreparedAlibi) Report(ctx context.Context, seed uint64, k int) (*spacetime.Report, error) {
	rep := &spacetime.Report{
		SymbolicMeet: len(pa.times) > 0,
		MeetTimes:    pa.times,
		RelErr:       pa.eps,
		Confidence:   1 - pa.delta,
		Window:       pa.window,
		RegionTuples: pa.regionTuples,
		PrunedTuples: pa.prunedTuples,
	}
	if pa.prep == nil {
		rep.Consistent = rep.Meet == rep.SymbolicMeet
		return rep, nil
	}
	var vol float64
	var err error
	if k <= 1 {
		vol, err = pa.prep.VolumeCtx(ctx, seed)
	} else {
		opts := pa.prep.Options()
		opts.Interrupt = ctx.Err
		vol, err = core.MedianVolume(pa.fat, k, seed, opts, pa.fan)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: alibi volume estimate: %w", err)
	}
	rep.Volume = vol
	rep.Meet = vol > 0
	rep.Consistent = rep.Meet == rep.SymbolicMeet
	return rep, nil
}
