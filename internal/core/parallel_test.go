package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
)

func cubeFactory(d int, lo, hi float64) Factory {
	return func(seed uint64) (Observable, error) {
		return NewConvexPolytope(polytope.FromTuple(constraint.Cube(d, lo, hi)), rng.New(seed), fastOpts())
	}
}

func TestMedianVolume(t *testing.T) {
	rel := constraint.MustRelation("C", []string{"x", "y", "z"}, constraint.Cube(3, -1, 1))
	v, err := MedianVolume(rel, 7, 42, fastOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !num.WithinRatio(v, 8, 0.35) {
		t.Errorf("median volume = %g, want ~8", v)
	}
}

func TestMedianVolumeRejectsBadK(t *testing.T) {
	rel := constraint.MustRelation("C", []string{"x", "y"}, constraint.Cube(2, 0, 1))
	if _, err := MedianVolume(rel, 0, 1, fastOpts(), nil); err == nil {
		t.Error("k=0 must fail")
	}
}

// TestMedianVolumeFanoutBounded: k = 8 estimators over a width-2
// fan-out run at most three at a time — one on each slot and one on the
// caller — every one of them runs once, and the median equals the
// one-after-another run's bit for bit.
func TestMedianVolumeFanoutBounded(t *testing.T) {
	const k = 8
	var inFlight, peak atomic.Int64
	var runs [k]atomic.Int64
	if _, err := medianOf(k, NewFanout(2), func(i int) (float64, error) {
		runs[i].Add(1)
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		return float64(i), nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("%d estimators in flight at once over a width-2 fan-out, want at most 3", p)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Errorf("estimator %d ran %d times, want once", i, n)
		}
	}
	rel := constraint.MustRelation("C", []string{"x", "y"}, constraint.Cube(2, 0, 1))
	want, err := MedianVolume(rel, k, 5, fastOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MedianVolume(rel, k, 5, fastOpts(), NewFanout(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("median over a width-2 fan-out = %v, one after another = %v", got, want)
	}
}

// TestMedianVolumeMajorityFailure interrupts every estimator: all k runs
// must be attempted and counted as failed, and the interrupt's error
// must surface — the hook that stops a cancelled request's estimators.
func TestMedianVolumeMajorityFailure(t *testing.T) {
	var calls atomic.Int64
	opts := fastOpts()
	opts.Interrupt = func() error {
		calls.Add(1)
		return context.Canceled
	}
	rel := constraint.MustRelation("C", []string{"x", "y"}, constraint.Cube(2, 0, 1))
	_, err := MedianVolume(rel, 5, 1, opts, nil)
	if err == nil {
		t.Fatal("all-failing estimators must error")
	}
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "5/5 runs failed") {
		t.Errorf("error = %v, want 5/5 runs failed with context.Canceled", err)
	}
	if calls.Load() < 5 {
		t.Errorf("interrupt polled %d times, want at least once per run", calls.Load())
	}
}

func TestSampleManyParallel(t *testing.T) {
	pts, err := SampleMany(cubeFactory(2, 0, 1), 400, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 400 {
		t.Fatalf("samples = %d", len(pts))
	}
	cube := constraint.Cube(2, 0, 1)
	var meanX float64
	for _, p := range pts {
		if p == nil || !cube.Contains(p) {
			t.Fatalf("bad sample %v", p)
		}
		meanX += p[0] / 400
	}
	if meanX < 0.4 || meanX > 0.6 {
		t.Errorf("parallel sample mean = %g, want ~0.5", meanX)
	}
}

func TestSampleManyDeterministic(t *testing.T) {
	a, err := SampleMany(cubeFactory(2, 0, 1), 50, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleMany(cubeFactory(2, 0, 1), 50, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			t.Fatal("SampleMany must be deterministic for fixed seeds")
		}
	}
}

func TestSampleManyEdgeCases(t *testing.T) {
	if pts, err := SampleMany(cubeFactory(2, 0, 1), 0, 4, 1); err != nil || pts != nil {
		t.Error("n=0 must return nil, nil")
	}
	// More workers than samples.
	pts, err := SampleMany(cubeFactory(2, 0, 1), 3, 16, 1)
	if err != nil || len(pts) != 3 {
		t.Errorf("n=3 w=16: %d samples, err=%v", len(pts), err)
	}
	// Zero workers defaults to one.
	pts, err = SampleMany(cubeFactory(2, 0, 1), 5, 0, 1)
	if err != nil || len(pts) != 5 {
		t.Errorf("w=0: %d samples, err=%v", len(pts), err)
	}
}

func TestSampleManyPropagatesErrors(t *testing.T) {
	factory := func(seed uint64) (Observable, error) {
		return nil, errors.New("no generator")
	}
	if _, err := SampleMany(factory, 10, 2, 1); err == nil {
		t.Error("factory errors must propagate")
	}
}
