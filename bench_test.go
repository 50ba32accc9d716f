// Benchmark harness: one benchmark per reproduction experiment (E1–E12;
// each runE* in internal/experiments names the paper claim it measures) plus
// micro-benchmarks of the core primitives. The experiment benches run
// the quick configurations; `cmd/cdbbench` prints the full tables that
// EXPERIMENTS.md records.
package cdb_test

import (
	"fmt"
	"testing"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, experiments.Config{Seed: 2006 + uint64(i), Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkE1RejectionVsWalk(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2GeneratorUniformity(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3VolumeEstimator(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4Union(b *testing.B)               { benchExperiment(b, "E4") }
func BenchmarkE5Intersection(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6Difference(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7Projection(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8HullConvergence(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9ProjectionVsFM(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10SATIntersection(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11FixedDimension(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12PolynomialOracle(b *testing.B)   { benchExperiment(b, "E12") }

// ---- micro-benchmarks of the primitives ----

func BenchmarkSampleConvex(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rel := cdb.MustRelation("C", varNames(d), cdb.Cube(d, -1, 1))
			gen := newSampler(b, rel, 1, cdb.DefaultOptions())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSampleGridWalk(b *testing.B) {
	rel := cdb.MustRelation("C", varNames(2), cdb.Cube(2, 0, 1))
	opts := cdb.FaithfulOptions()
	opts.WalkSteps = 1000
	gen := newSampler(b, rel, 1, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVolumeEstimate(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rel := cdb.MustRelation("C", varNames(d), cdb.Cube(d, -1, 1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := newSampler(b, rel, uint64(i), cdb.DefaultOptions()).Volume(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactVolume(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rel := cdb.MustRelation("C", varNames(d),
				cdb.Cube(d, 0, 2), cdb.Cube(d, 1, 3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cdb.ExactVolume(rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParse(b *testing.B) {
	src := `
		rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 } | { 2 <= x <= 3, 0 <= y <= 1 };
		rel T(x)    := exists y. S(x, y);
		query Q(x)  := T(x) & x >= 1/2;
	`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cdb.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFourierMotzkin(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("eliminate=%d", k), func(b *testing.B) {
			d := 2 + k
			rel := cdb.MustRelation("P", varNames(d), cdb.Cube(d, 0, 1))
			drop := make([]int, k)
			for i := range drop {
				drop[i] = 2 + i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				constraint.EliminateAll(rel, drop, constraint.EliminateOptions{})
			}
		})
	}
}

func BenchmarkMembership(b *testing.B) {
	rel := cdb.MustRelation("C", varNames(6),
		cdb.Cube(6, 0, 2), cdb.Cube(6, 1, 3))
	x := make(cdb.Vector, 6)
	for i := range x {
		x[i] = 1.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rel.Contains(x) {
			b.Fatal("membership broke")
		}
	}
}

func varNames(d int) []string {
	out := make([]string, d)
	for i := range out {
		out[i] = fmt.Sprintf("x%d", i)
	}
	return out
}
