package server

import (
	"context"
	"testing"

	cdb "repro"
	"repro/internal/runtime"
)

// The benchmarks quantify the prepared-sampler cache win: the naive
// serving strategy pays the full rounding + volume setup on every
// request, the cached strategy pays it once and binds seeds to the warm
// geometry.

func benchRelation() *cdb.Relation {
	return cdb.MustRelation("H", []string{"a", "b", "c", "d"},
		cdb.Cube(4, 0, 1),
		cdb.Box(cdb.Vector{1, 0, 0, 0}, cdb.Vector{2, 1, 1, 1}),
	)
}

const benchSamplesPerRequest = 16

// BenchmarkNaivePerRequestSampler is the baseline: every request builds
// its own sampler from scratch — a full cdb.PrepareSampler setup, then
// one bind.
func BenchmarkNaivePerRequestSampler(b *testing.B) {
	rel := benchRelation()
	for i := 0; i < b.N; i++ {
		ps, err := cdb.PrepareSampler(rel, uint64(i+1), cdb.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		obs, err := ps.NewObservable(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < benchSamplesPerRequest; j++ {
			if _, err := obs.Sample(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWarmCachedSampler is the server's warm path: bind a request
// seed to the shared prepared geometry and draw.
func BenchmarkWarmCachedSampler(b *testing.B) {
	rel := benchRelation()
	ps, err := cdb.PrepareSampler(rel, 1, cdb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := ps.NewObservable(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < benchSamplesPerRequest; j++ {
			if _, err := obs.Sample(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchExecutorSampleMany measures the full server-side batched
// draw: prepared sampler + worker pool, 1024 points per request.
func BenchmarkBatchExecutorSampleMany(b *testing.B) {
	rel := benchRelation()
	ps, err := cdb.PrepareSampler(rel, 1, cdb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m := NewMetrics()
	pool := runtime.NewPoolWithSink(4, m)
	defer pool.Close()
	exec := runtime.NewExecutorWithSink(pool, m)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, _, err := exec.SampleManyCtx(ctx, "bench", ps, 1024, 4, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 1024 {
			b.Fatalf("got %d points", len(pts))
		}
	}
}

// benchSingleTupleRelation is a single-tuple target, where the
// preparation-time volume estimate is already the whole answer.
func benchSingleTupleRelation() *cdb.Relation {
	return cdb.MustRelation("S", []string{"a", "b", "c", "d"}, cdb.Simplex(4, 1))
}

// BenchmarkPreparedVolumeRebind is the historical /v1/volume warm path:
// every request bound a full observable (walker initialisation included)
// just to read back the preparation-time estimate of a single-tuple
// relation.
func BenchmarkPreparedVolumeRebind(b *testing.B) {
	ps, err := cdb.PrepareSampler(benchSingleTupleRelation(), 1, cdb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := ps.NewObservable(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := obs.Volume(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedVolumeFastPath is the current warm path:
// PreparedSampler.Volume surfaces the preparation-time estimate
// directly for single-tuple relations — no observable, no walker.
func BenchmarkPreparedVolumeFastPath(b *testing.B) {
	ps, err := cdb.PrepareSampler(benchSingleTupleRelation(), 1, cdb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Volume(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
