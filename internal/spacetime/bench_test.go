package spacetime_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/spacetime"
)

// The benchmarks quantify the slice-cache win the /v1/spacetime/slice
// endpoint gets from the prepared-sampler cache: repeated time-slice
// sampling at the same t0 either re-slices and re-prepares per request
// (cold) or binds request seeds to the one warm prepared snapshot
// (warm). BENCH_spacetime.json records the measured ratio.

const benchSliceSamples = 16

func benchSlice(b *testing.B) (*spacetime.Trajectory, float64) {
	b.Helper()
	tr := dataset.RandomTrajectory(rng.New(99), "bench", dataset.TrajectoryConfig{Steps: 4})
	lo, hi := tr.Support()
	return tr, lo + 0.37*(hi-lo) // generic interior slice time
}

// BenchmarkColdTimeSliceSampling is the naive serving strategy: every
// request slices the trajectory and pays the full rounding + volume
// preparation before drawing.
func BenchmarkColdTimeSliceSampling(b *testing.B) {
	tr, t0 := benchSlice(b)
	rel := tr.Relation()
	tc := spacetime.TimeColumn(rel)
	opts := core.Options{}
	for i := 0; i < b.N; i++ {
		slice, err := spacetime.TimeSlice(rel, tc, t0)
		if err != nil {
			b.Fatal(err)
		}
		prep, err := core.PrepareRelation(slice, rng.New(1), opts)
		if err != nil {
			b.Fatal(err)
		}
		obs, err := prep.Bind(rng.New(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < benchSliceSamples; j++ {
			if _, err := obs.Sample(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWarmTimeSliceSampling is the served warm path: the slice is
// prepared once (what the sampler cache stores under (db, relation,
// t0, options)) and every request only binds its seed.
func BenchmarkWarmTimeSliceSampling(b *testing.B) {
	tr, t0 := benchSlice(b)
	rel := tr.Relation()
	tc := spacetime.TimeColumn(rel)
	opts := core.Options{}
	slice, err := spacetime.TimeSlice(rel, tc, t0)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := core.PrepareRelation(slice, rng.New(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := prep.Bind(rng.New(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < benchSliceSamples; j++ {
			if _, err := obs.Sample(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAlibiSampling measures one full sampled alibi evaluation on
// a crossing pair (meet region build, Fourier–Motzkin meeting times and
// volume estimate; runtime.PrepareAlibi then Report), the cost the
// paper's sampling path pays where exact elimination would blow up.
func BenchmarkAlibiSampling(b *testing.B) {
	a, t2 := dataset.CrossingPair(rng.New(42), dataset.TrajectoryConfig{Steps: 3})
	ra, rb := a.Relation(), t2.Relation()
	lo, hi := a.Support()
	for i := 0; i < b.N; i++ {
		rep, err := alibi(ra, rb, lo, hi, uint64(i+1), 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Meet {
			b.Fatal("crossing pair stopped meeting")
		}
	}
}
