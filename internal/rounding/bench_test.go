package rounding_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/walk"
)

// BenchmarkRoundedHitAndRunStep times one hit-and-run step on the body
// the samplers really walk: perfbench's random polytopes at d = 2, 4, 6
// (dataset seed 20001016), put through rounding.Round with the samplers'
// three isotropy passes.
func BenchmarkRoundedHitAndRunStep(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			p := dataset.RandomPolytope(rng.New(20001016+uint64(d*100+d)), d, d, 0.8)
			c, innerR, err := p.Chebyshev()
			if err != nil {
				b.Fatal(err)
			}
			bc, outerR, err := p.EnclosingBall()
			if err != nil {
				b.Fatal(err)
			}
			ro, err := rounding.Round(p, c, innerR, c.Dist(bc)+outerR, rng.New(1), rounding.Options{Iterations: 3})
			if err != nil {
				b.Fatal(err)
			}
			w, err := walk.New(ro.Body, make(linalg.Vector, d), rng.New(2), walk.Config{
				Kind: walk.HitAndRun, OuterRadius: ro.OuterRadius,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}
