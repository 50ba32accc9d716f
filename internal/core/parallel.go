package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/linalg"
)

// This file fans independent generators out over goroutines; each
// worker owns its own generator (walk state is not shareable), which is
// exactly the independence the estimators assume. The median of
// independent volume estimates is MedianVolume in prepared.go.

// Factory builds an independent generator/estimator from a seed. Each
// call must return a fresh instance with its own randomness.
type Factory func(seed uint64) (Observable, error)

// SampleMany draws n samples using w parallel workers, each with an
// independent generator from factory. Sample order is deterministic for
// a fixed (factory, n, w, baseSeed) tuple: worker i produces the samples
// with index ≡ i (mod w) from its own stream.
func SampleMany(factory Factory, n, w int, baseSeed uint64) ([]linalg.Vector, error) {
	return SampleManyCtx(context.Background(), func(fn func()) { go fn() }, factory, n, w, baseSeed)
}

// Submitter schedules fn for execution, possibly on a shared worker
// pool; it must eventually run fn exactly once. The trivial submitter is
// func(fn func()) { go fn() }.
type Submitter func(fn func())

// SampleManyCtx is SampleMany with the worker goroutines scheduled
// through submit instead of spawned directly, and with cooperative
// cancellation. The output does not depend on the submitter — each
// logical worker still owns the seed baseSeed + 7919·i and the sample
// indices ≡ i (mod w) — so a serving layer can coalesce many concurrent
// requests onto one bounded pool without changing what any request
// returns. Every worker polls ctx between samples (and the factories it
// is given are expected to bind ctx into their generators, so
// cancellation also cuts a sample short mid-walk). On cancellation the call returns ctx.Err()
// once every worker has stopped — workers never outlive the call, so a
// cancelled batch cannot leak pool capacity.
func SampleManyCtx(ctx context.Context, submit Submitter, factory Factory, n, w int, baseSeed uint64) ([]linalg.Vector, error) {
	if n <= 0 {
		return nil, nil
	}
	if w <= 0 {
		w = 1
	}
	if w > n {
		w = n
	}
	out := make([]linalg.Vector, n)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		submit(func() {
			defer wg.Done()
			// A panicking factory or sampler must not leave the caller
			// with silently-nil points (or, on a shared pool, kill the
			// process): surface it as this worker's error.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("core: sampling worker %d panicked: %v", i, r)
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			obs, err := factory(baseSeed + uint64(7919*i))
			if err != nil {
				errs[i] = err
				return
			}
			for j := i; j < n; j += w {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				x, err := obs.Sample()
				if err != nil {
					errs[i] = err
					return
				}
				out[j] = x
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
