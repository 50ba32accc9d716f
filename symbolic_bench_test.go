package cdb_test

// Benchmarks behind BENCH_symbolic.json: the prepared-symbolic cache
// win (cold Fourier–Motzkin eliminate vs cached replay) and the
// symbolic-vs-sampled volume wall-clock across dimensions d = 2..6.
// All run under the CI -benchtime=1x smoke.

import (
	"context"
	"fmt"
	"testing"

	cdb "repro"
)

// symbolicBenchProgram defines a 3-D relation whose projection needs
// two rounds of elimination, plus the division pair.
const symbolicBenchProgram = `
rel P(x, y, z) := { 0 <= x <= 1, 0 <= y <= 1, 0 <= z <= 1,
                    x + y + z <= 2, x - y + z <= 1.5, y - z <= 0.8 };
rel N(x, y)    := { 0 <= x <= 3, 0 <= y <= 1, x + y <= 3 };
rel O(y)       := { 0 <= y <= 1 };
`

// BenchmarkSymbolicColdEliminate: full quantifier elimination per call
// — a fresh handle per iteration, so every EvalSymbolic pays the
// Fourier–Motzkin pass (projection of P onto x: two eliminations with
// LP pruning).
func BenchmarkSymbolicColdEliminate(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		db, err := cdb.Open(symbolicBenchProgram)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Rel("P").Project("x").EvalSymbolic(ctx); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkSymbolicWarmReplay: the same elimination served from the
// prepared-symbolic cache — replays bind nothing and pay two lookups.
func BenchmarkSymbolicWarmReplay(b *testing.B) {
	db, err := cdb.Open(symbolicBenchProgram)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	expr := db.Rel("P").Project("x")
	if _, err := expr.EvalSymbolic(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.EvalSymbolic(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// projectionProgram builds a d-dimensional cut cube whose last
// coordinate is projected away — the workload both evaluations share.
func projectionProgram(d int) string {
	vars := ""
	atoms := ""
	for j := 0; j < d; j++ {
		if j > 0 {
			vars += ", "
			atoms += ", "
		}
		vars += fmt.Sprintf("x%d", j)
		atoms += fmt.Sprintf("0 <= x%d <= 1", j)
	}
	sum := ""
	for j := 0; j < d; j++ {
		if j > 0 {
			sum += " + "
		}
		sum += fmt.Sprintf("x%d", j)
	}
	return fmt.Sprintf("rel H(%s) := { %s, %s <= %g };", vars, atoms, sum, float64(d)-0.5)
}

func projectionCols(d int) []string {
	cols := make([]string, d-1)
	for j := range cols {
		cols[j] = fmt.Sprintf("x%d", j)
	}
	return cols
}

// BenchmarkVolumeSymbolicVsSampled compares, per dimension d = 2..6,
// the exact symbolic volume (Fourier–Motzkin elimination of one
// coordinate + Lasserre inclusion–exclusion, cold each iteration)
// against the Monte-Carlo estimate of the same projection, also cold:
// the executor eliminates the coordinate within its atom budget and
// prepares the result before estimating.
func BenchmarkVolumeSymbolicVsSampled(b *testing.B) {
	ctx := context.Background()
	for d := 2; d <= 6; d++ {
		src := projectionProgram(d)
		cols := projectionCols(d)
		b.Run(fmt.Sprintf("symbolic/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, err := cdb.Open(src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Rel("H").Project(cols...).VolumeSymbolic(ctx); err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
		})
		b.Run(fmt.Sprintf("sampled/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, err := cdb.Open(src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Rel("H").Project(cols...).Volume(ctx); err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
		})
	}
}
