// Package experiments implements the reproduction experiment suite
// E1–E12, one per claim of the paper (each runE* names its claim). The
// paper is a theory paper with no empirical tables, so each experiment
// turns one quantitative claim (theorem, complexity bound, or Figure 1's
// phenomenon) into a measured table whose *shape* — who wins, by what
// factor, where crossovers fall — is the reproduction target.
// EXPERIMENTS.md records the measured rows.
//
// The same code drives `go test -bench` (quick configurations) and the
// cmd/cdbbench binary (full tables).
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

// Config tunes an experiment run.
type Config struct {
	// Seed makes runs reproducible.
	Seed uint64
	// Quick shrinks workloads for use inside `go test -bench`.
	Quick bool
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "*Claim:* %s\n\n", t.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "*Note:* %s\n\n", n)
	}
}

// Runner is an experiment entry point.
type Runner func(cfg Config) (*Table, error)

// registry maps experiment IDs to runners, populated across the package
// files.
var registry = map[string]Runner{}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// E1 < ... < E12 numerically, then ablations A1 < A2 < A3.
		gi, ni := idClass(ids[i])
		gj, nj := idClass(ids[j])
		if gi != gj {
			return gi < gj
		}
		return ni < nj
	})
	return ids
}

func idClass(id string) (group, n int) {
	if _, err := fmt.Sscanf(id, "E%d", &n); err == nil {
		return 0, n
	}
	if _, err := fmt.Sscanf(id, "A%d", &n); err == nil {
		return 1, n
	}
	return 2, 0
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}

func fastOpts() core.Options {
	return core.Options{
		Params: core.Params{Gamma: 0.25, Eps: 0.25, Delta: 0.1},
		Walk:   walk.HitAndRun,
	}
}

func f(v float64) string { return fmt.Sprintf("%.4g", v) }
func fi(v int) string    { return fmt.Sprintf("%d", v) }
func fd(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

func init() {
	registry["E1"] = runE1
	registry["E2"] = runE2
	registry["E3"] = runE3
	registry["E4"] = runE4
	registry["E5"] = runE5
	registry["E6"] = runE6
}

// runE1: rejection sampling from the cube needs exponentially many
// trials to hit the inscribed ball, while the walk generator's cost
// grows polynomially (§1/§2's motivating remark).
func runE1(cfg Config) (*Table, error) {
	dims := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 12}
	if cfg.Quick {
		dims = []int{2, 4, 6, 8}
	}
	t := &Table{
		ID:      "E1",
		Title:   "naive rejection vs walk sampling of the inscribed ball",
		Claim:   "an exponential number of cube-rejection trials is needed per ball sample; the walk's cost is polynomial in d",
		Columns: []string{"d", "ball/cube ratio", "expected trials", "measured trials", "walk steps/sample", "walk ok"},
	}
	r := rng.New(cfg.Seed)
	for _, d := range dims {
		ratio := num.BallVolume(d, 1) / num.CubeVolume(d, 2)
		expected := 1 / ratio
		// Measured rejection trials for one hit (capped).
		capTrials := 2_000_000
		if cfg.Quick {
			capTrials = 200_000
		}
		trials := 0
		x := make(linalg.Vector, d)
		for trials < capTrials {
			trials++
			var n2 float64
			for j := range x {
				x[j] = r.Uniform(-1, 1)
				n2 += x[j] * x[j]
			}
			if n2 <= 1 {
				break
			}
		}
		measured := fi(trials)
		if trials == capTrials {
			measured = fmt.Sprintf(">%d", capTrials)
		}
		// Walk cost: hit-and-run steps per sample on the ball oracle.
		ball := walk.BallBody{Center: make(linalg.Vector, d), Radius: 1}
		steps := walk.DefaultHitAndRunSteps(d, 1)
		w, err := walk.New(ball, make(linalg.Vector, d), r.Split(), walk.Config{Kind: walk.HitAndRun})
		ok := "yes"
		if err != nil {
			ok = "no"
		} else {
			w.Sample(steps)
		}
		t.Rows = append(t.Rows, []string{fi(d), f(ratio), f(expected), measured, fi(steps), ok})
	}
	t.Notes = append(t.Notes,
		"expected trials = cube/ball volume ratio: 1.3 at d=2, ~3×10³ at d=12, roughly ×4 per added dimension (super-exponential), while walk steps grow as O(d²)")
	return t, nil
}

// runE2: the DFK grid-walk generator's distribution approaches uniform
// as the step budget grows (Definition 2.2(1) / the DFK theorem).
func runE2(cfg Config) (*Table, error) {
	type body struct {
		name string
		tup  constraint.Tuple
	}
	bodies := []body{
		{"square", constraint.Cube(2, 0, 1)},
		{"simplex2", constraint.Simplex(2, 1)},
		{"cube3", constraint.Cube(3, 0, 1)},
	}
	stepSweep := []int{50, 200, 800, 3200}
	samples := 4000
	if cfg.Quick {
		bodies = bodies[:2]
		stepSweep = []int{50, 400}
		samples = 1200
	}
	t := &Table{
		ID:      "E2",
		Title:   "grid-walk distribution quality vs step budget",
		Claim:   "the lazy grid walk is almost uniform on well-rounded bodies: TV distance sits at the sampling-noise floor at every budget (ablation A2 isolates the per-step mixing decay from a cold start)",
		Columns: []string{"body", "steps", "cells", "TV distance"},
	}
	for bi, b := range bodies {
		for _, steps := range stepSweep {
			opts := core.Options{
				Params:    core.Params{Gamma: 0.45, Eps: 0.3, Delta: 0.1},
				Walk:      walk.GridWalk,
				WalkSteps: steps,
			}
			gen, err := core.NewConvexPolytope(polytope.FromTuple(b.tup), rng.New(cfg.Seed+uint64(bi)), opts)
			if err != nil {
				return nil, err
			}
			g := gen.Grid()
			counts := map[string]int{}
			for i := 0; i < samples; i++ {
				y, err := gen.SampleRounded()
				if err != nil {
					return nil, err
				}
				counts[g.Key(y)]++
			}
			flat := make([]int, 0, len(counts))
			for _, c := range counts {
				flat = append(flat, c)
			}
			tv := geom.TVDistanceUniform(flat)
			t.Rows = append(t.Rows, []string{b.name, fi(steps), fi(len(flat)), f(tv)})
		}
	}
	t.Notes = append(t.Notes, "TV is computed over occupied grid cells; sampling noise floors it around sqrt(cells/samples)")
	return t, nil
}

// runE3: the volume estimator achieves its relative ratio on bodies with
// closed-form volumes (the DFK estimator + §5's membership-only oracle).
func runE3(cfg Config) (*Table, error) {
	type tc struct {
		name  string
		build func(r *rng.RNG) (core.Observable, error)
		exact float64
	}
	mk := func(tup constraint.Tuple) func(r *rng.RNG) (core.Observable, error) {
		return func(r *rng.RNG) (core.Observable, error) {
			return core.NewConvexPolytope(polytope.FromTuple(tup), r, fastOpts())
		}
	}
	cases := []tc{
		{"cube d=2", mk(constraint.Cube(2, -1, 1)), num.CubeVolume(2, 2)},
		{"cube d=4", mk(constraint.Cube(4, -1, 1)), num.CubeVolume(4, 2)},
		{"cube d=6", mk(constraint.Cube(6, -1, 1)), num.CubeVolume(6, 2)},
		{"simplex d=3", mk(constraint.Simplex(3, 1)), num.SimplexVolume(3, 1)},
		{"cross d=3", mk(constraint.CrossPolytope(3, 1)), num.CrossPolytopeVolume(3, 1)},
		{"box 1x50", mk(constraint.Box(linalg.Vector{0, 0}, linalg.Vector{50, 1})), 50},
	}
	if cfg.Quick {
		cases = cases[:3]
	}
	reps := 5
	if cfg.Quick {
		reps = 2
	}
	t := &Table{
		ID:      "E3",
		Title:   "relative volume estimation on closed-form bodies",
		Claim:   "the telescoping estimator approximates the volume with ratio 1+ε with probability 1-δ (ε=0.25 target; ratios reported over repetitions)",
		Columns: []string{"body", "exact", "median estimate", "worst ratio", "within 1.35x"},
	}
	for ci, c := range cases {
		ests := make([]float64, 0, reps)
		worst := 1.0
		for rep := 0; rep < reps; rep++ {
			obs, err := c.build(rng.New(cfg.Seed + uint64(100*ci+rep)))
			if err != nil {
				return nil, err
			}
			v, err := obs.Volume()
			if err != nil {
				return nil, err
			}
			ests = append(ests, v)
			ratio := v / c.exact
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > worst {
				worst = ratio
			}
		}
		pass := "yes"
		if worst > 1.35 {
			pass = "no"
		}
		t.Rows = append(t.Rows, []string{c.name, f(c.exact), f(num.Median(ests)), f(worst), pass})
	}
	return t, nil
}

// runE4: union generator and estimator (Theorem 4.1/4.2, Corollary 4.2):
// no double counting of overlaps, per-round acceptance >= 1/m, and
// m-way sampling cost grows ~linearly in m.
func runE4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "union generator: overlap correctness and m-way scaling",
		Claim:   "union volume is exact under Karp-Luby acceptance (no overlap double-count); per-round acceptance >= 1/m; cost per sample grows ~linearly with m",
		Columns: []string{"workload", "exact vol", "estimated vol", "acceptance", "ns/sample"},
	}
	// Part 1: overlapping pair [0,2]^2 ∪ [1,3]^2 (exact 7).
	r := rng.New(cfg.Seed)
	mkConvex := func(tup constraint.Tuple, seed uint64) (core.Observable, error) {
		return core.NewConvexPolytope(polytope.FromTuple(tup), rng.New(seed), fastOpts())
	}
	a, err := mkConvex(constraint.Cube(2, 0, 2), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	b, err := mkConvex(constraint.Cube(2, 1, 3), cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	u, err := core.NewUnion([]core.Observable{a, b}, r.Split(), fastOpts())
	if err != nil {
		return nil, err
	}
	v, err := u.Volume()
	if err != nil {
		return nil, err
	}
	nSamp := 800
	if cfg.Quick {
		nSamp = 200
	}
	start := time.Now()
	for i := 0; i < nSamp; i++ {
		if _, err := u.Sample(); err != nil {
			return nil, err
		}
	}
	perSample := time.Since(start).Nanoseconds() / int64(nSamp)
	t.Rows = append(t.Rows, []string{"overlap pair", "7", f(v), f(u.AcceptanceRate()), fi(int(perSample))})

	// Part 2: m-way disjoint squares.
	ms := []int{2, 4, 8, 16}
	if cfg.Quick {
		ms = []int{2, 8}
	}
	for _, m := range ms {
		members := make([]core.Observable, m)
		for i := 0; i < m; i++ {
			lo := float64(3 * i)
			obs, err := mkConvex(constraint.Box(linalg.Vector{lo, 0}, linalg.Vector{lo + 1, 1}), cfg.Seed+uint64(10+i))
			if err != nil {
				return nil, err
			}
			members[i] = obs
		}
		um, err := core.NewUnion(members, r.Split(), fastOpts())
		if err != nil {
			return nil, err
		}
		vm, err := um.Volume()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < nSamp; i++ {
			if _, err := um.Sample(); err != nil {
				return nil, err
			}
		}
		per := time.Since(start).Nanoseconds() / int64(nSamp)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("disjoint m=%d", m), fi(m), f(vm), f(um.AcceptanceRate()), fi(int(per)),
		})
	}
	t.Notes = append(t.Notes, "disjoint m-way acceptance stays 1.0 (each point has a unique canonical member); ns/sample includes member generator work")
	return t, nil
}

// runE5: intersection is observable iff poly-related (Proposition 4.1):
// acceptance tracks the overlap ratio and the guard aborts below the
// floor.
func runE5(cfg Config) (*Table, error) {
	overlaps := []float64{0.5, 0.1, 0.02, 0.004, 1e-6}
	if cfg.Quick {
		overlaps = []float64{0.5, 0.02, 1e-6}
	}
	t := &Table{
		ID:      "E5",
		Title:   "intersection observability vs overlap ratio",
		Claim:   "rejection sampling from the smaller operand succeeds when the intersection is poly-related and aborts (ErrNotPolyRelated) when it is exponentially small",
		Columns: []string{"overlap fraction", "est. volume", "exact volume", "acceptance", "outcome"},
	}
	for i, frac := range overlaps {
		// [0,1]x[0,1] ∩ [1-frac,2-frac]x[0,1]: overlap volume = frac.
		opts := fastOpts()
		opts.AcceptanceFloor = 1e-3
		opts.MaxRounds = 6000
		a, err := core.NewConvexPolytope(polytope.FromTuple(constraint.Cube(2, 0, 1)), rng.New(cfg.Seed+uint64(i*2)), opts)
		if err != nil {
			return nil, err
		}
		bTup := constraint.Box(linalg.Vector{1 - frac, 0}, linalg.Vector{2 - frac, 1})
		b, err := core.NewConvexPolytope(polytope.FromTuple(bTup), rng.New(cfg.Seed+uint64(i*2+1)), opts)
		if err != nil {
			return nil, err
		}
		in, err := core.NewIntersection([]core.Observable{a, b}, rng.New(cfg.Seed+uint64(50+i)), opts)
		if err != nil {
			return nil, err
		}
		outcome := "ok"
		vol := math.NaN()
		if v, err := in.Volume(); err != nil {
			outcome = shortErr(err)
		} else {
			vol = v
		}
		volStr := "-"
		if !math.IsNaN(vol) {
			volStr = f(vol)
		}
		t.Rows = append(t.Rows, []string{f(frac), volStr, f(frac), f(in.AcceptanceRate()), outcome})
	}
	t.Notes = append(t.Notes, "the 1e-6 row must abort: this is the SAT-hardness boundary of §4.1.3 made operational")
	return t, nil
}

// runE6: difference under the same poly-relatedness guard
// (Proposition 4.2).
func runE6(cfg Config) (*Table, error) {
	shells := []float64{0.9, 0.5, 0.1, 0.01, 1e-6}
	if cfg.Quick {
		shells = []float64{0.5, 0.01, 1e-6}
	}
	t := &Table{
		ID:      "E6",
		Title:   "difference observability vs shell fraction",
		Claim:   "S1 − S2 is observable when its volume is poly-related to S1's; exponentially thin shells abort",
		Columns: []string{"shell fraction", "est. volume", "exact volume", "acceptance", "outcome"},
	}
	for i, frac := range shells {
		// S1 = [0,1]^2; S2 covers all but an x-slab of width frac.
		opts := fastOpts()
		opts.AcceptanceFloor = 1e-3
		opts.MaxRounds = 6000
		s1, err := core.NewConvexPolytope(polytope.FromTuple(constraint.Cube(2, 0, 1)), rng.New(cfg.Seed+uint64(i)), opts)
		if err != nil {
			return nil, err
		}
		s2 := polytope.FromTuple(constraint.Box(linalg.Vector{-1, -1}, linalg.Vector{1 - frac, 2}))
		df, err := core.NewDifference(s1, s2, rng.New(cfg.Seed+uint64(80+i)), opts)
		if err != nil {
			return nil, err
		}
		outcome := "ok"
		volStr := "-"
		if v, err := df.Volume(); err != nil {
			outcome = shortErr(err)
		} else {
			volStr = f(v)
		}
		t.Rows = append(t.Rows, []string{f(frac), volStr, f(frac), f(df.AcceptanceRate()), outcome})
	}
	return t, nil
}

func shortErr(err error) string {
	s := err.Error()
	switch {
	case strings.Contains(s, "not poly-related"):
		return "abort: not poly-related"
	case strings.Contains(s, "generator failed"):
		return "abort: generator failed"
	}
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}
