package core

// Walk golden: the float64 bits the random walks produce for fixed seeds.
// The grid, ball and hit-and-run walks run over three bodies — a rounded
// H-polytope (exact chords through the rounding map), a rounded
// membership-only semi-algebraic body (bisection chords) and the
// volume-phase intersection of a rounded body with a ball — and the
// position after fixed step counts is recorded bit for bit, together
// with the walker's effort counters. The volume phases' coordinate
// kernel (walk.AxisWalker) over the rounded H-polytope, at a phase radius
// and with no ball, Convex.Sample/Volume on each walk kind and one union
// draw are pinned the same way. Rewrite the golden
// only on purpose, with -update-walk.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/semialg"
	"repro/internal/walk"
)

var updateWalk = flag.Bool("update-walk", false, "rewrite testdata/walk_golden.json")

// goldenPolytope is a skewed 3-D polytope, far from round, so the
// rounding map is a full (non-diagonal) affine map.
func goldenPolytope() *polytope.Polytope {
	return polytope.New([]linalg.Vector{
		{-1, 0, 0}, {0, -1, 0}, {0, 0, -1},
		{1, 4, 2}, {1, -1, 0}, {0, 1, 3},
	}, []float64{0, 0, 0, 8, 3, 5})
}

// goldenEllipsoid is a membership-only semi-algebraic body.
func goldenEllipsoid(t *testing.T) *semialg.Body {
	t.Helper()
	b, err := semialg.Ellipsoid(linalg.Vector{1, -0.5, 2}, []float64{2.5, 1, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenBodies returns the walked bodies with the outer radius each
// needs for bisection chords.
func goldenBodies(t *testing.T) []struct {
	name  string
	body  walk.Body
	outer float64
} {
	t.Helper()
	poly := goldenPolytope()
	center, innerR, outerR, err := polytopeWitnesses(poly)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := rounding.Round(poly, center, innerR, outerR, rng.New(101), rounding.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rounding.Round(goldenEllipsoid(t), linalg.Vector{1, -0.5, 2}, 0.6, 2.5, rng.New(102), rounding.Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	phaseR := 1.5
	phase := walk.IntersectionBody{Bodies: []walk.Body{
		rp.Body,
		walk.BallBody{Center: make(linalg.Vector, 3), Radius: phaseR},
	}}
	return []struct {
		name  string
		body  walk.Body
		outer float64
	}{
		{"polytope", rp.Body, rp.OuterRadius},
		{"semialg", rs.Body, rs.OuterRadius},
		{"phase", phase, phaseR},
	}
}

// bitsOf renders a vector as the hex bits of its coordinates.
func bitsOf(x linalg.Vector) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return strings.Join(parts, " ")
}

func recordWalks(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	checkpoints := []int{1, 7, 50, 400}
	bodies := goldenBodies(t)
	for bi, b := range bodies {
		for _, kind := range []walk.Kind{walk.GridWalk, walk.BallWalk, walk.HitAndRun} {
			cfg := walk.Config{Kind: kind, Grid: geom.NewGrid(3, 0.05), Delta: 0.3, OuterRadius: b.outer}
			w, err := walk.New(b.body, make(linalg.Vector, 3), rng.New(uint64(200+10*bi)+uint64(kind)), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, kind, err)
			}
			var rows []string
			done := 0
			for _, c := range checkpoints {
				x := w.Run(c - done)
				done = c
				st := w.Stats()
				rows = append(rows, fmt.Sprintf("%d: %s steps=%d accepted=%d oracle=%d",
					c, bitsOf(x), st.Steps, st.Accepted, st.OracleCalls))
			}
			out[b.name+"/"+kind.String()] = rows
		}
	}
	// The volume phases' coordinate kernel over the rounded polytope, at
	// the phase radius and with no ball.
	poly, ok := bodies[0].body.(*polytope.Polytope)
	if !ok {
		t.Fatalf("rounded polytope is %T, want a folded *polytope.Polytope", bodies[0].body)
	}
	for ri, radius := range []float64{1.5, math.Inf(1)} {
		w, err := walk.NewAxisWalker(poly, radius, make(linalg.Vector, 3), rng.New(250+uint64(ri)), nil)
		if err != nil {
			t.Fatalf("axis walker at radius %g: %v", radius, err)
		}
		var rows []string
		done := 0
		for _, c := range append(checkpoints, 5000) {
			x := w.Run(c - done)
			done = c
			st := w.Stats()
			rows = append(rows, fmt.Sprintf("%d: %s steps=%d accepted=%d oracle=%d",
				c, bitsOf(x), st.Steps, st.Accepted, st.OracleCalls))
		}
		out[fmt.Sprintf("axis/r=%g", radius)] = rows
	}
	return out
}

func recordConvex(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	drawAndMeasure := func(name string, c *Convex, n int) {
		var rows []string
		for i := 0; i < n; i++ {
			x, err := c.Sample()
			if err != nil {
				t.Fatalf("%s: sample %d: %v", name, i, err)
			}
			rows = append(rows, "sample: "+bitsOf(x))
		}
		v, err := c.Volume()
		if err != nil {
			t.Fatalf("%s: volume: %v", name, err)
		}
		rows = append(rows, "volume: "+bitsOf(linalg.Vector{v}))
		out[name] = rows
	}
	for _, kind := range []walk.Kind{walk.GridWalk, walk.BallWalk, walk.HitAndRun} {
		opts := Options{Walk: kind, MaxPhaseSamples: 100}
		if kind == walk.GridWalk {
			opts.WalkSteps = 3000
		}
		c, err := NewConvexPolytope(goldenPolytope(), rng.New(300+uint64(kind)), opts)
		if err != nil {
			t.Fatal(err)
		}
		drawAndMeasure("convex/polytope/"+kind.String(), c, 8)
	}
	c, err := NewConvex(goldenEllipsoid(t), linalg.Vector{1, -0.5, 2}, 0.6, 2.5, rng.New(310),
		Options{Walk: walk.HitAndRun, MaxPhaseSamples: 60})
	if err != nil {
		t.Fatal(err)
	}
	drawAndMeasure("convex/semialg/hit-and-run", c, 4)

	rel, err := constraint.NewRelation("U", []string{"x", "y"},
		constraint.Box(linalg.Vector{0, 0}, linalg.Vector{2, 1}),
		constraint.Box(linalg.Vector{1, 0}, linalg.Vector{3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareRelation(rel, rng.New(320), Options{Walk: walk.HitAndRun})
	if err != nil {
		t.Fatal(err)
	}
	o, err := pr.Bind(rng.New(321))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 0; i < 8; i++ {
		x, err := o.Sample()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, "sample: "+bitsOf(x))
	}
	out["union/hit-and-run"] = rows
	return out
}

func TestWalkGolden(t *testing.T) {
	got := recordWalks(t)
	for k, v := range recordConvex(t) {
		got[k] = v
	}
	path := filepath.Join("testdata", "walk_golden.json")
	if *updateWalk {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d records, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			t.Errorf("%s: %d rows, want %d", k, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s row %d moved off the golden:\n got %s\nwant %s", k, i, g[i], w[i])
			}
		}
	}
}
