package cdb_test

import (
	"context"
	"fmt"

	cdb "repro"
)

// ExampleParse demonstrates the constraint language: relations are DNF
// unions of linear-constraint conjunctions; queries stay unevaluated.
func ExampleParse() {
	db, err := cdb.Parse(`
		rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 };
		query Q(x)  := exists y. S(x, y);
	`)
	if err != nil {
		panic(err)
	}
	s, _ := db.Relation("S")
	fmt.Println(s.Arity(), len(s.Tuples), s.Contains(cdb.Vector{0.2, 0.2}))
	// Output: 2 1 true
}

// ExamplePrepareSampler shows the two primitives of the paper: almost
// uniform generation and relative volume estimation. The setup is paid
// once; every bound seed is an independent generator over it.
func ExamplePrepareSampler() {
	rel := cdb.MustRelation("R", []string{"x", "y"}, cdb.Cube(2, 0, 1))
	ps, err := cdb.PrepareSampler(rel, 42, cdb.DefaultOptions())
	if err != nil {
		panic(err)
	}
	gen, err := ps.NewObservable(43)
	if err != nil {
		panic(err)
	}
	p, _ := gen.Sample()
	v, _ := gen.Volume()
	fmt.Println(rel.Contains(p), v > 0.5 && v < 1.6)
	// Output: true true
}

// ExampleExactVolume contrasts the fixed-dimension exact computation
// (Lemma 3.1) with the randomized machinery.
func ExampleExactVolume() {
	rel := cdb.MustRelation("U", []string{"x"},
		cdb.Cube(1, 0, 2), cdb.Cube(1, 1, 3)) // [0,2] ∪ [1,3]
	v, err := cdb.ExactVolume(rel)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.1f\n", v)
	// Output: 3.0
}

// ExampleExpr_EvalSymbolic evaluates a named query symbolically: the
// existential quantifier is eliminated by Fourier–Motzkin, the baseline
// the sampling terminals are measured against.
func ExampleExpr_EvalSymbolic() {
	db, _ := cdb.Open(`
		rel S(x, y) := { 0 <= x <= 2, 0 <= y <= 1 };
		query Q(x)  := exists y. S(x, y);
	`)
	defer db.Close()
	sym, _ := db.Rel("Q").EvalSymbolic(context.Background())
	fmt.Println(sym.Contains(cdb.Vector{1}), sym.Contains(cdb.Vector{3}))
	// Output: true false
}
