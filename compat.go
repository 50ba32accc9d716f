package cdb

// The package-level compatibility surface: a lazily created default
// runtime behind the deprecated wrappers (NewSampler, EstimateVolume,
// MedianVolume, SampleMany). Historically each call paid the full
// sampler setup; they now share one warm prepared-sampler cache keyed
// by the relation's canonical plan hash — the identical key a DB
// handle or a cdbserve node computes for the same geometry — so repeat
// calls on structurally equal relations bind seeds against cached
// geometry. Signatures and error behaviour are unchanged: any
// preparation problem falls back to the original cold path, which
// produces the canonical error.

import (
	"sync"

	"repro/internal/query"
	"repro/internal/runtime"
)

// defaultHandle is the package's lazily created shared runtime: an
// anonymous registry entry plus the prepared-sampler LRU and bounded
// worker pool every deprecated wrapper routes through. Like
// database/sql's connection pools it lives for the process — there is
// no Close; the pool is bounded and idle when unused.
var defaultHandle struct {
	once  sync.Once
	rt    *runtime.Runtime
	entry *runtime.DatabaseEntry
}

// defaultRuntime returns the shared runtime, creating it on first use.
// ok is false only if the anonymous registry entry could not be
// created (never expected; callers fall back to the cold path).
func defaultRuntime() (*runtime.Runtime, *runtime.DatabaseEntry, bool) {
	defaultHandle.once.Do(func() {
		rt := runtime.NewWithSink(runtime.Config{}, nil)
		entry, _, err := rt.Registry().RegisterParsed("cdb.default", "", &Database{})
		if err != nil {
			rt.Close()
			return
		}
		defaultHandle.rt, defaultHandle.entry = rt, entry
	})
	return defaultHandle.rt, defaultHandle.entry, defaultHandle.rt != nil
}

// preparedRelation returns the warm prepared sampler for an ad-hoc
// relation through the default runtime's cache. ok is false when the
// warm path cannot serve the call — a nil or empty relation, a
// per-call Interrupt hook (cancellation must not be baked into shared
// geometry), or a preparation error — and the caller must run the
// legacy cold path so error values and behaviour are unchanged.
func preparedRelation(rel *Relation, opts Options) (rt *runtime.Runtime, ps *PreparedSampler, key string, ok bool) {
	if rel == nil || len(rel.Tuples) == 0 || opts.Interrupt != nil {
		return nil, nil, "", false
	}
	rt, entry, ok := defaultRuntime()
	if !ok {
		return nil, nil, "", false
	}
	cp := query.Canonicalize(runtime.PlanOfRelation(rel))
	ps, key, _, err := rt.PreparedPlan(entry, cp, opts)
	if err != nil {
		return nil, nil, "", false
	}
	return rt, ps, key, true
}
