package experiments

import (
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/num"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

// Ablation experiments A1–A3 isolate the three design choices the
// generators rest on: the union combinator vs a direct walk on a
// disconnected-ish body (the paper's own motivating remark in §4.1.1),
// the choice of random walk, and the rounding pass.

func init() {
	registry["A1"] = runA1
	registry["A2"] = runA2
	registry["A3"] = runA3
}

// runA1: §4.1.1's remark — "consider two large convex sets linked by a
// thin tube T: starting from S, the probability to walk through the
// bridge and reach S' is likely to be small." A direct walk on the
// dumbbell concentrates in the component it starts in; the union
// generator (Theorem 4.1) splits mass by volume regardless of the tube.
func runA1(cfg Config) (*Table, error) {
	widths := []float64{0.2, 0.05, 0.01, 0.002}
	samples := 1200
	budget := 400 // steps per direct-walk sample
	if cfg.Quick {
		widths = []float64{0.2, 0.01}
		samples = 400
	}
	t := &Table{
		ID:      "A1",
		Title:   "ablation: direct walk vs union generator on the dumbbell",
		Claim:   "a direct walk gets trapped by thin connectors while the union generator splits mass by volume (§4.1.1's remark / Theorem 4.1)",
		Columns: []string{"tube width", "direct walk right-mass", "union right-mass", "ideal"},
	}
	for wi, width := range widths {
		rel := dataset.Dumbbell(2, 10, width)
		// Direct walk: independent hit-and-run chains over the union's
		// membership oracle, each restarted in the left cube with a fixed
		// step budget — the fraction ending in the right component
		// measures cross-component mixing (a single long chain would
		// only measure the random time of its first crossing).
		body := relationBody{rel}
		r := rng.New(cfg.Seed + uint64(wi))
		directRight := 0
		for i := 0; i < samples; i++ {
			w, err := walk.New(body, linalg.Vector{0, 0}, r, walk.Config{
				Kind: walk.HitAndRun, OuterRadius: 12,
			})
			if err != nil {
				return nil, err
			}
			p := w.Sample(budget)
			if p[0] > 5 {
				directRight++
			}
		}
		// Union generator.
		ur := r.Split()
		prep, err := core.PrepareRelation(rel, ur, fastOpts())
		if err != nil {
			return nil, err
		}
		obs, err := prep.Bind(ur)
		if err != nil {
			return nil, err
		}
		unionRight := 0
		for i := 0; i < samples; i++ {
			p, err := obs.Sample()
			if err != nil {
				return nil, err
			}
			if p[0] > 5 {
				unionRight++
			}
		}
		// Ideal right-mass: right cube + half of the tube over the total.
		// The tube spans x ∈ [1, 8] with cross-section [−w, w]: volume
		// 7·2w, half of it 7w.
		exact, err := core.ExactVolume(rel)
		if err != nil {
			return nil, err
		}
		rightVol := 4.0 + 7*width
		ideal := rightVol / exact
		t.Rows = append(t.Rows, []string{
			f(width),
			f(float64(directRight) / float64(samples)),
			f(float64(unionRight) / float64(samples)),
			f(ideal),
		})
	}
	t.Notes = append(t.Notes,
		"as the tube thins, the direct walk's right-mass collapses toward 0 while the union generator stays at the ideal split")
	return t, nil
}

// relationBody adapts a generalized relation to a walk membership
// oracle (the union as one body — exactly what Theorem 4.1 warns about).
type relationBody struct{ rel *constraint.Relation }

func (b relationBody) Dim() int                      { return b.rel.Arity() }
func (b relationBody) Contains(x linalg.Vector) bool { return b.rel.Contains(x) }

// runA2: walk choice — distribution quality per unit of work for the
// grid walk (the paper's), the ball walk, and hit-and-run, at an equal
// membership-call budget.
func runA2(cfg Config) (*Table, error) {
	budgets := []int{100, 400, 1600}
	samples := 3000
	if cfg.Quick {
		budgets = []int{100, 800}
		samples = 1000
	}
	kinds := []walk.Kind{walk.GridWalk, walk.BallWalk, walk.HitAndRun}
	t := &Table{
		ID:      "A2",
		Title:   "ablation: walk kind vs distribution quality at equal step budget",
		Claim:   "hit-and-run mixes fastest per step; the grid walk (the paper's) converges too but needs more steps; all reach uniformity",
		Columns: []string{"walk", "steps", "TV distance"},
	}
	tri := polytope.New([]linalg.Vector{{-1, 0}, {0, -1}, {1, 1}}, []float64{0, 0, 1})
	hist := geom.NewGrid(2, 0.125)
	for _, kind := range kinds {
		for _, budget := range budgets {
			r := rng.New(cfg.Seed + uint64(budget))
			cfgW := walk.Config{Kind: kind, OuterRadius: 2}
			switch kind {
			case walk.GridWalk:
				cfgW.Grid = geom.NewGrid(2, 0.02)
			case walk.BallWalk:
				cfgW.Delta = 0.25
			}
			start := linalg.Vector{0.25, 0.25}
			counts := map[string]int{}
			for i := 0; i < samples; i++ {
				w, err := walk.New(tri, start, r, cfgW)
				if err != nil {
					return nil, err
				}
				p := w.Sample(budget)
				counts[hist.Key(p)]++
			}
			flat := make([]int, 0, len(counts))
			for _, c := range counts {
				flat = append(flat, c)
			}
			t.Rows = append(t.Rows, []string{kind.String(), fi(budget), f(geom.TVDistanceUniform(flat))})
		}
	}
	t.Notes = append(t.Notes, "each sample restarts the walk from a fixed corner-ish point, so TV reflects pure mixing speed")
	return t, nil
}

// runA3: rounding on/off — without well-rounding, the volume estimator
// on an elongated body degrades; with it (the paper's first DFK step)
// the estimate lands within the ratio.
func runA3(cfg Config) (*Table, error) {
	aspects := []float64{5, 25, 100}
	if cfg.Quick {
		aspects = []float64{5, 100}
	}
	t := &Table{
		ID:      "A3",
		Title:   "ablation: rounding pass on elongated bodies",
		Claim:   "the DFK well-rounding step is what makes elongated bodies tractable: without it the sandwiching ratio (and walk budget) blows up with the aspect ratio",
		Columns: []string{"aspect", "ratio w/o rounding", "ratio w/ rounding", "vol est (rounded)", "exact", "ok"},
	}
	for ai, aspect := range aspects {
		rbox := dataset.RotatedBox(rng.New(cfg.Seed+uint64(ai)), []float64{aspect, 1})
		exact := 4 * aspect

		// Without isotropy rounding: only recentring/scaling
		// (RoundingIterations < 0 disables the covariance pass).
		noRound, err := core.NewConvexPolytope(rbox, rng.New(cfg.Seed+uint64(10+ai)), core.Options{
			Params:             fastOpts().Params,
			Walk:               walk.HitAndRun,
			RoundingIterations: -1,
		})
		if err != nil {
			return nil, err
		}
		withRound, err := core.NewConvexPolytope(rbox, rng.New(cfg.Seed+uint64(20+ai)), core.Options{
			Params:             fastOpts().Params,
			Walk:               walk.HitAndRun,
			RoundingIterations: 5,
		})
		if err != nil {
			return nil, err
		}
		v, err := withRound.Volume()
		if err != nil {
			return nil, err
		}
		ok := "yes"
		if !num.WithinRatio(v, exact, 0.5) {
			ok = "no"
		}
		t.Rows = append(t.Rows, []string{
			f(aspect),
			f(noRound.SandwichRatio()),
			f(withRound.SandwichRatio()),
			f(v), f(exact), ok,
		})
	}
	t.Notes = append(t.Notes,
		"the un-rounded sandwich ratio tracks the aspect ratio; isotropy rounding pulls it to O(1) so fixed walk budgets suffice")
	return t, nil
}
