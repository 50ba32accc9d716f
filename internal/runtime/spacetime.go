package runtime

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/spacetime"
)

// The spacetime preparations serve the moving-object workload: relations
// over (x_1..x_d, t) — typically trajectory fleets of space-time prisms
// — queried through the time-slice operator, window sampling and alibi
// evaluation.
//
// Time slices are where the prepared-sampler cache earns its keep for
// this workload: a dashboard replaying "where could everything have
// been at t0?" hits the same (database, relation, t0, options) key on
// every frame, so the slicing + rounding + volume setup is paid once
// per distinct t0 and every later request binds only its seed. Empty
// slices — t0 outside the support — are cached as negative entries, so
// out-of-support replays are O(1) verdict lookups instead of repeated
// failed builds.

// ErrEmptySlice marks a time slice (or window) with no feasible tuple —
// t0 outside the relation's support. Serving layers map it to an empty
// result or a client error; it is cached negatively.
var ErrEmptySlice = errors.New("empty time slice")

// sliceCacheName canonically names a slice target for the sampler
// cache: relation name plus the slice time (shortest round-trip float
// format, so 1.5 and 1.50 share an entry).
func sliceCacheName(rel string, t0 float64) string {
	return rel + "@" + strconv.FormatFloat(t0, 'g', -1, 64)
}

// windowCacheName names a windowed space-time target.
func windowCacheName(rel string, t0, t1 float64) string {
	return rel + "@" + strconv.FormatFloat(t0, 'g', -1, 64) + ":" + strconv.FormatFloat(t1, 'g', -1, 64)
}

// SliceKey is the cache key PreparedSlice stores under — exported so
// routing layers can compute a request's owner without resolving the
// target locally. optsKey is Options.CacheKey().
func SliceKey(dbID, rel string, t0 float64, optsKey string) string {
	return SamplerKey(dbID, "slice", sliceCacheName(rel, t0), optsKey)
}

// WindowKey is the cache key PreparedWindow stores under.
func WindowKey(dbID, rel string, t0, t1 float64, optsKey string) string {
	return SamplerKey(dbID, "window", windowCacheName(rel, t0, t1), optsKey)
}

// spacetimeRelation resolves a plain relation (spacetime targets are
// always declared relations, not queries).
func spacetimeRelation(e *DatabaseEntry, name string) (*constraint.Relation, error) {
	if name == "" {
		return nil, errors.New("missing relation name")
	}
	rel, ok := e.DB.Relation(name)
	if !ok {
		return nil, fmt.Errorf("%w: relation %q in database %q", ErrTargetNotFound, name, e.ID)
	}
	return rel, nil
}

// PreparedSlice returns the cached prepared sampler for the t0-slice of
// a relation, slicing and preparing on first use. The returned key
// feeds the batch executor's coalescing. Empty slices are cached as
// negative entries (hit=true on replay, err wrapping ErrEmptySlice).
func (rt *Runtime) PreparedSlice(e *DatabaseEntry, relName string, t0 float64, opts core.Options) (*Prepared, string, bool, error) {
	key := SliceKey(e.ID, relName, t0, opts.CacheKey())
	ps, hit, err := rt.cache.Get(key, func() (*Prepared, error) {
		rel, err := spacetimeRelation(e, relName)
		if err != nil {
			return nil, err
		}
		slice, err := spacetime.TimeSlice(rel, spacetime.TimeColumn(rel), t0)
		if err != nil {
			return nil, err
		}
		if len(slice.Tuples) == 0 {
			if lo, hi, ok := spacetime.Support(rel, spacetime.TimeColumn(rel)); ok {
				return nil, Negative(fmt.Errorf("%w: t0=%g outside the support [%.6g, %.6g] of %q",
					ErrEmptySlice, t0, spacetime.SnapNoise(lo), spacetime.SnapNoise(hi), relName))
			}
			return nil, Negative(fmt.Errorf("%w: t0=%g, relation %q", ErrEmptySlice, t0, relName))
		}
		// Shed measure-zero pieces (e.g. a slice exactly at another
		// bead's observation time) so one degenerate tuple cannot sink a
		// snapshot that is otherwise full-dimensional.
		slice, _ = spacetime.PruneThin(slice, 0)
		if len(slice.Tuples) == 0 {
			return nil, Negative(fmt.Errorf("%w: the slice of %q at t0=%g is a measure-zero set "+
				"(t0 coincides with an observation time)", ErrEmptySlice, relName, t0))
		}
		return Prepare(slice, PrepSeedFor(key), opts, rt.fan)
	})
	return ps, key, hit, err
}

// PreparedWindow is PreparedSlice's counterpart for time windows: the
// cached prepared sampler for the [t0, t1] restriction of a relation,
// windowing and preparing on first use. A window whose boundary touches
// an observation time clips a bead to a flat (measure-zero) set, so
// thin tuples are shed before the well-boundedness setup. Empty windows
// are cached negatively, like empty slices.
func (rt *Runtime) PreparedWindow(e *DatabaseEntry, relName string, t0, t1 float64, opts core.Options) (*Prepared, string, bool, error) {
	key := WindowKey(e.ID, relName, t0, t1, opts.CacheKey())
	ps, hit, err := rt.cache.Get(key, func() (*Prepared, error) {
		rel, err := spacetimeRelation(e, relName)
		if err != nil {
			return nil, err
		}
		win, err := spacetime.TimeWindow(rel, spacetime.TimeColumn(rel), t0, t1)
		if err != nil {
			return nil, err
		}
		win, _ = spacetime.PruneThin(win, 0)
		if len(win.Tuples) == 0 {
			return nil, Negative(fmt.Errorf("%w: window [%g, %g], relation %q", ErrEmptySlice, t0, t1, relName))
		}
		return Prepare(win, PrepSeedFor(key), opts, rt.fan)
	})
	return ps, key, hit, err
}
