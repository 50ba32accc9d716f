package rounding_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/walk"
)

// roundedShape is perfbench's random polytope at dimension d (dataset
// seed 20001016), put through rounding.Round with the samplers' three
// isotropy passes: the folded body the samplers and volume phases walk.
func roundedShape(b *testing.B, d int) *rounding.Rounded {
	b.Helper()
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
	return ro
}

// BenchmarkRoundedHitAndRunStep times one hit-and-run step on the body
// the samplers really walk: perfbench's shapes at d = 2, 4, 6 after
// rounding.Round.
func BenchmarkRoundedHitAndRunStep(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			ro := roundedShape(b, d)
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

// stepper is a walk seen step by step.
type stepper interface {
	Step()
	Current() linalg.Vector
}

// BenchmarkPhaseWalkMixing prices a volume phase's step together with
// how fast it mixes, so a cheaper but stickier step cannot pass as a
// speedup. On perfbench's shapes at d = 2, 3, 4, 6 after rounding.Round,
// at the middle phase (the walk over K ∩ B(0, r_{i+1}) that counts hits
// in B(0, r_i), radii growing by 1+1/d from the inner to the outer
// radius), it times a step of the generic hit-and-run walker over
// IntersectionBody{rows, ball} and of the coordinate kernel
// (walk.AxisWalker). The bare-generic and bare-axis pair walk the rounded
// polytope alone, as a warm draw does: the generic hit-and-run walker
// over the polytope and the kernel with an infinite radius, judged by the
// same indicator. Besides ns/op (one step) it reports tau_steps, the
// hit indicator's integrated autocorrelation time by batch means over
// 2²⁰ steps, and ns/eff_sample = tau_steps × ns/op.
func BenchmarkPhaseWalkMixing(b *testing.B) {
	for _, d := range []int{2, 3, 4, 6} {
		ro := roundedShape(b, d)
		poly, ok := ro.Body.(*polytope.Polytope)
		if !ok {
			b.Fatalf("d=%d: rounded body is %T, want a folded polytope", d, ro.Body)
		}
		radii := []float64{ro.InnerRadius}
		for radii[len(radii)-1] < ro.OuterRadius {
			radii = append(radii, min(radii[len(radii)-1]*(1+1/float64(d)), ro.OuterRadius))
		}
		mid := (len(radii) - 1) / 2
		rSmall, rBig := radii[mid], radii[mid+1]
		start := make(linalg.Vector, d)
		for _, k := range []struct {
			name string
			walk func(seed uint64) (stepper, error)
		}{
			{"generic", func(seed uint64) (stepper, error) {
				phase := walk.IntersectionBody{Bodies: []walk.Body{poly, walk.BallBody{Center: start, Radius: rBig}}}
				return walk.New(phase, start, rng.New(seed), walk.Config{Kind: walk.HitAndRun, OuterRadius: rBig})
			}},
			{"axis", func(seed uint64) (stepper, error) {
				return walk.NewAxisWalker(poly, rBig, start, rng.New(seed), nil)
			}},
			{"bare-generic", func(seed uint64) (stepper, error) {
				return walk.New(poly, start, rng.New(seed), walk.Config{Kind: walk.HitAndRun, OuterRadius: ro.OuterRadius})
			}},
			{"bare-axis", func(seed uint64) (stepper, error) {
				return walk.NewAxisWalker(poly, math.Inf(1), start, rng.New(seed), nil)
			}},
		} {
			tau := -1.0
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				if tau < 0 {
					w, err := k.walk(3)
					if err != nil {
						b.Fatal(err)
					}
					tau = hitTau(w, rSmall*rSmall)
				}
				w, err := k.walk(4)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Step()
				}
				b.StopTimer()
				b.ReportMetric(tau, "tau_steps")
				b.ReportMetric(tau*float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/eff_sample")
			})
		}
	}
}

// hitTau returns the integrated autocorrelation time, in steps, of the
// indicator |x|² <= r2 along w after a burn-in: batch means over 256
// batches of 4,096 steps, τ = L·Var(batch means)/Var(indicator).
func hitTau(w stepper, r2 float64) float64 {
	const batches, size = 256, 4096
	for i := 0; i < 10_000; i++ {
		w.Step()
	}
	means := make([]float64, batches)
	var hits float64
	for k := range means {
		n := 0
		for i := 0; i < size; i++ {
			w.Step()
			if x := w.Current(); x.Dot(x) <= r2 {
				n++
			}
		}
		means[k] = float64(n) / size
		hits += float64(n)
	}
	p := hits / (batches * size)
	var v float64
	for _, m := range means {
		v += (m - p) * (m - p)
	}
	v /= batches - 1
	return size * v / (p * (1 - p))
}
