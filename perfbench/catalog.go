package main

// Seeded generation of every workload input: the warm_draw catalog (a
// constraint program plus its targets) and the adhoc_sql statement
// stream. Everything here is a pure function of the seed; gen_test.go
// checks that.
//
// The seed moves and scales every catalog body and draws every constant,
// but the body SHAPES come from fixed internal/dataset seeds. Sampling
// cost depends on shape (row count, sandwiching ratio) and not on
// position or scale, so two seeds cost the same work; that keeps the
// run-to-run spread of every figure small while no two seeds share a
// cache key. (The adhoc_sql relations are fixed; see adhocProgram.)

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	cdb "repro"
	"repro/internal/constraint"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/query"
	"repro/internal/rng"
)

// shapeSeed fixes the body shapes drawn from internal/dataset.
const shapeSeed = 20001016

// target is one sampling target of the warm catalog.
type target struct {
	Name string // label in reports
	Kind string // convex | union | composed | slice | projection
	// SQL is the statement body (no SAMPLE clause); empty when the
	// target has no SQL form (time slices).
	SQL string
	// Node is the same expression on the internal algebra IR, for the
	// traced layer-by-layer driver and the exact membership oracle.
	Node *query.Node
	// Expr builds the expression through the public combinators.
	Expr func(db *cdb.DB) *cdb.Expr
	// JSON is the expression's /v1/expr wire form.
	JSON string
}

// catalog is the warm_draw input: a program and its targets.
type catalog struct {
	Program string
	Targets []target
}

// placement is a seeded similarity transform x ↦ s·x + t.
type placement struct {
	s float64
	t linalg.Vector
}

func newPlacement(r *rng.RNG, d int) placement {
	p := placement{s: r.Uniform(0.8, 1.25), t: make(linalg.Vector, d)}
	for i := range p.t {
		p.t[i] = r.Uniform(-3, 3)
	}
	return p
}

// tuple maps a tuple {A x <= b} to {A y <= s·b + A·t}.
func (p placement) tuple(t constraint.Tuple) constraint.Tuple {
	atoms := make([]constraint.Atom, len(t.Atoms))
	for i, a := range t.Atoms {
		atoms[i] = constraint.NewAtom(a.Coef.Clone(), p.s*a.B+a.Coef.Dot(p.t), a.Strict)
	}
	return constraint.NewTuple(t.Dim(), atoms...)
}

// relation places every tuple of rel and renames it.
func (p placement) relation(name string, vars []string, rel *constraint.Relation) *constraint.Relation {
	out := make([]constraint.Tuple, len(rel.Tuples))
	for i, t := range rel.Tuples {
		out[i] = p.tuple(t)
	}
	return constraint.MustRelation(name, vars, out...)
}

// xvars returns x0..x{d-1}.
func xvars(d int) []string {
	out := make([]string, d)
	for i := range out {
		out[i] = fmt.Sprintf("x%d", i)
	}
	return out
}

// shape returns the fixed random polytope of dimension d with m cuts.
func shape(d, m int) *constraint.Relation {
	p := dataset.RandomPolytope(rng.New(shapeSeed+uint64(d*100+m)), d, m, 0.8)
	return constraint.MustRelation("shape", xvars(d), p.Tuple())
}

func relTarget(name, kind string) target {
	return target{
		Name: name,
		Kind: kind,
		SQL:  "SELECT * FROM " + name,
		Node: query.NewRel(name),
		Expr: func(db *cdb.DB) *cdb.Expr { return db.Rel(name) },
		JSON: relJSON(name),
	}
}

// sampleSQL is the target's `SAMPLE n SEED k` statement.
func (tg target) sampleSQL(n int, seed uint64) string {
	return fmt.Sprintf("%s SAMPLE %d SEED %d", tg.SQL, n, seed)
}

func relJSON(name string) string { return `{"op":"rel","name":"` + name + `"}` }

// newCatalog builds the warm_draw catalog for seed: convex bodies at
// d = 2, 3, 4, 6, two overlapping unions (a parcel map and a dumbbell),
// the composed (A ∪ C) ∩ B at d = 4, a time slice of a random
// trajectory and one ∃-projection of the 3-D body.
func newCatalog(seed uint64) *catalog {
	r := rng.New(seed ^ 0x5eedca7a)
	var sb strings.Builder
	add := func(rel *constraint.Relation) {
		sb.WriteString(rel.Source())
		sb.WriteString("\n")
	}
	var targets []target
	for _, d := range []int{2, 3, 4, 6} {
		name := fmt.Sprintf("K%d", d)
		add(newPlacement(r, d).relation(name, xvars(d), shape(d, d)))
		targets = append(targets, relTarget(name, "convex"))
	}

	parcels := dataset.NewParcelMap(rng.New(shapeSeed), 8, 3).Relation("")
	add(newPlacement(r, 2).relation("P", []string{"x", "y"}, parcels))
	targets = append(targets, relTarget("P", "union"))

	add(newPlacement(r, 3).relation("D", xvars(3), dataset.Dumbbell(3, 5, 0.3)))
	targets = append(targets, relTarget("D", "union"))

	// A and C overlap (C is A shifted along x0); B cuts both.
	pl := newPlacement(r, 4)
	a := shape(4, 4)
	add(pl.relation("A", xvars(4), a))
	shift := placement{s: 1, t: linalg.Vector{0.6, 0, 0, 0}}
	add(pl.relation("C", xvars(4), shift.relation("C", xvars(4), a)))
	add(pl.relation("B", xvars(4), shape(4, 2)))
	targets = append(targets, target{
		Name: "(A∪C)∩B",
		Kind: "composed",
		SQL:  "SELECT * FROM A UNION SELECT * FROM C INTERSECT SELECT * FROM B",
		Node: query.NewRel("A").Union(query.NewRel("C")).Intersect(query.NewRel("B")),
		Expr: func(db *cdb.DB) *cdb.Expr {
			return db.Rel("A").Union(db.Rel("C")).Intersect(db.Rel("B"))
		},
		JSON: `{"op":"intersect","args":[{"op":"union","args":[` + relJSON("A") + `,` + relJSON("C") + `]},` + relJSON("B") + `]}`,
	})

	tr := dataset.RandomTrajectory(rng.New(shapeSeed), "T", dataset.TrajectoryConfig{Dim: 2, Steps: 4})
	add(tr.Relation())
	// Mid-leg of the second bead: the slice is one convex piece.
	t0 := r.Uniform(14, 16)
	targets = append(targets, target{
		Name: "T@t0",
		Kind: "slice",
		Node: query.NewRel("T").TimeSlice(t0),
		Expr: func(db *cdb.DB) *cdb.Expr { return db.Rel("T").TimeSliceAt(t0) },
		JSON: `{"op":"timeslice","args":[` + relJSON("T") + `],"t":` + strconv.FormatFloat(t0, 'g', -1, 64) + `}`,
	})

	targets = append(targets, target{
		Name: "∃x2.K3",
		Kind: "projection",
		SQL:  "EXISTS (x2) SELECT * FROM K3",
		Node: query.NewRel("K3").Project("x0", "x1"),
		Expr: func(db *cdb.DB) *cdb.Expr { return db.Rel("K3").Project("x0", "x1") },
		JSON: `{"op":"project","args":[` + relJSON("K3") + `],"vars":["x0","x1"]}`,
	})
	return &catalog{Program: sb.String(), Targets: targets}
}

// adhocBase is one relation of the adhoc_sql program with the data a
// statement generator needs: its columns and a point deep inside it.
type adhocBase struct {
	Name   string
	Cols   []string
	Center linalg.Vector
}

// adhocProgram is the adhoc_sql database: a 2-D simplex, a 2-D union of
// two overlapping boxes, a 3-D polytope and a 3-D union of two boxes.
// The relations are fixed: a cold statement's preparation runs linear
// programs whose pivot paths depend on where the body sits, so only the
// statements' WHERE constants come from the seed.
func adhocProgram() (string, []adhocBase) {
	var sb strings.Builder
	var bases []adhocBase
	add := func(name string, cols []string, rel *constraint.Relation, center linalg.Vector) {
		sb.WriteString(constraint.MustRelation(name, cols, rel.Tuples...).Source())
		sb.WriteString("\n")
		bases = append(bases, adhocBase{Name: name, Cols: cols, Center: center})
	}
	xy, xyz := []string{"x", "y"}, []string{"x", "y", "z"}
	add("S", xy, constraint.MustRelation("S", xy, constraint.Simplex(2, 1.5)), linalg.Vector{0.45, 0.45})
	add("R", xy, constraint.MustRelation("R", xy,
		constraint.Box(linalg.Vector{0, 0}, linalg.Vector{1, 1}),
		constraint.Box(linalg.Vector{0.5, 0.5}, linalg.Vector{1.5, 1.5})), linalg.Vector{0.75, 0.75})
	add("W", xyz, shape(3, 6), linalg.Vector{0, 0, 0})
	add("U", xyz, constraint.MustRelation("U", xyz,
		constraint.Box(linalg.Vector{0, 0, 0}, linalg.Vector{1, 1, 1}),
		constraint.Box(linalg.Vector{0.5, 0, 0.5}, linalg.Vector{1.5, 1, 1.5})), linalg.Vector{0.75, 0.5, 0.75})
	return sb.String(), bases
}

// statement is one adhoc_sql request.
type statement struct {
	Kind string // sample | volume | exists | explain
	Text string
}

// adhocKinds is one cycle of the adhoc_sql mix. Cold statements (three
// 2-D, three 3-D union volumes) are 6/16 of the stream and nearly all of
// its time; cheap ones (four EXPLAINs, six bare EXISTS eliminations)
// fill the rest. So the median lands inside the EXISTS statements
// (compile plus Fourier–Motzkin) and the 90th percentile in the middle of
// the 3-D union volumes: each inside one kind of statement, away from a
// boundary between two kinds.
var adhocKinds = []struct {
	kind string
	base int
}{
	{"sample", 0}, {"exists", 2}, {"explain", 1}, {"volume", 3}, {"exists", 2}, {"explain", 0},
	{"volume", 1}, {"exists", 2}, {"volume", 3}, {"exists", 2}, {"explain", 3}, {"sample", 1},
	{"exists", 2}, {"volume", 3}, {"exists", 2}, {"explain", 2},
}

// adhocStream returns the first n statements of seed's adhoc stream.
// Every statement carries a fresh halfspace, so no two share a cache key
// and the working set outgrows the 64-entry cache. The cut direction of
// each (kind, relation) pair is fixed and the seed jitters it and the
// cut depth: cold-statement cost depends on the cut's shape, so this
// keeps the cost of a stream the same from seed to seed.
func adhocStream(seed uint64, bases []adhocBase, n int) []statement {
	r := rng.New(seed ^ 0x57a7e)
	out := make([]statement, 0, n)
	for i := 0; i < n; i++ {
		k := adhocKinds[i%len(adhocKinds)]
		b := bases[k.base]
		where := halfspace(r, b, k.kind)
		var text string
		switch k.kind {
		case "sample":
			text = fmt.Sprintf("SELECT * FROM %s WHERE %s SAMPLE 16 SEED %d", b.Name, where, r.Uint64()>>16)
		case "volume":
			text = fmt.Sprintf("SELECT VOLUME(*) FROM %s WHERE %s", b.Name, where)
		case "exists":
			text = fmt.Sprintf("EXISTS (%s) SELECT * FROM %s WHERE %s", b.Cols[len(b.Cols)-1], b.Name, where)
		case "explain":
			text = fmt.Sprintf("EXPLAIN SELECT * FROM %s WHERE %s", b.Name, where)
		}
		out = append(out, statement{Kind: k.kind, Text: text})
	}
	return out
}

// halfspace renders a cut a·x <= c through the base relation, with the
// direction fixed per (statement kind, relation) and jittered by the
// seed, and a depth that keeps the relation's centre inside, so every
// statement is full-dimensional and non-empty.
func halfspace(r *rng.RNG, b adhocBase, kind string) string {
	d := len(b.Cols)
	a := rng.New(shapeSeed + stringHash(kind+b.Name)).OnSphere(make(linalg.Vector, d))
	var terms []string
	c := r.Uniform(0.195, 0.205)
	for i, v := range a {
		v, _ = strconv.ParseFloat(strconv.FormatFloat(v+r.Uniform(-0.01, 0.01), 'f', 4, 64), 64)
		c += v * b.Center[i]
		term := strconv.FormatFloat(math.Abs(v), 'f', -1, 64) + " " + b.Cols[i]
		switch {
		case i == 0 && v < 0:
			term = "-" + term
		case i > 0 && v < 0:
			term = "- " + term
		case i > 0:
			term = "+ " + term
		}
		terms = append(terms, term)
	}
	return strings.Join(terms, " ") + " <= " + strconv.FormatFloat(c, 'f', 4, 64)
}
