package walk

import (
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
)

func square() *polytope.Polytope {
	return polytope.FromTuple(constraint.Cube(2, 0, 1))
}

func TestGridWalkStaysInside(t *testing.T) {
	r := rng.New(1)
	g := geom.NewGrid(2, 0.1)
	w, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: GridWalk, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	body := square()
	for i := 0; i < 5000; i++ {
		w.Step()
		if !body.Contains(w.Current()) {
			t.Fatalf("walk left the body at step %d: %v", i, w.Current())
		}
	}
	if w.AcceptanceRate() == 0 {
		t.Error("grid walk never moved")
	}
}

func TestGridWalkStaysOnGrid(t *testing.T) {
	r := rng.New(2)
	g := geom.NewGrid(2, 0.25)
	w, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: GridWalk, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w.Step()
		for _, c := range w.Current() {
			snapped := math.Round(c/0.25) * 0.25
			if math.Abs(c-snapped) > 1e-9 {
				t.Fatalf("walker off grid: %v", w.Current())
			}
		}
	}
}

func TestGridWalkUniformOnSquare(t *testing.T) {
	// Chi-square-ish check: on a 4x4 grid of cells inside the unit
	// square, long-run visit frequencies are near uniform.
	r := rng.New(3)
	g := geom.NewGrid(2, 0.25)
	w, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: GridWalk, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const samples = 4000
	for i := 0; i < samples; i++ {
		p := w.Sample(200)
		counts[g.Key(p)]++
	}
	// 5x5 = 25 grid points in [0,1]^2 at step 0.25.
	if len(counts) < 23 {
		t.Fatalf("visited %d cells, want ~25", len(counts))
	}
	flat := make([]int, 0, len(counts))
	for _, c := range counts {
		flat = append(flat, c)
	}
	tv := geom.TVDistanceUniform(flat)
	if tv > 0.15 {
		t.Errorf("grid walk TV distance to uniform = %g, want < 0.15", tv)
	}
}

func TestBallWalk(t *testing.T) {
	r := rng.New(4)
	w, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: BallWalk, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	body := square()
	var mean linalg.Vector = make(linalg.Vector, 2)
	const n = 3000
	for i := 0; i < n; i++ {
		p := w.Sample(30)
		if !body.Contains(p) {
			t.Fatalf("ball walk left the body: %v", p)
		}
		mean.AddScaled(1.0/n, p)
	}
	if math.Abs(mean[0]-0.5) > 0.05 || math.Abs(mean[1]-0.5) > 0.05 {
		t.Errorf("ball walk mean = %v, want ~(0.5, 0.5)", mean)
	}
}

func TestBallWalkRequiresDelta(t *testing.T) {
	r := rng.New(5)
	if _, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: BallWalk}); err == nil {
		t.Error("BallWalk without Delta must fail")
	}
}

func TestHitAndRunPolytopeChords(t *testing.T) {
	r := rng.New(6)
	w, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: HitAndRun})
	if err != nil {
		t.Fatal(err)
	}
	body := square()
	var mean linalg.Vector = make(linalg.Vector, 2)
	const n = 3000
	for i := 0; i < n; i++ {
		p := w.Sample(20)
		if !body.Contains(p) {
			t.Fatalf("hit-and-run left the body: %v", p)
		}
		mean.AddScaled(1.0/n, p)
	}
	if math.Abs(mean[0]-0.5) > 0.04 || math.Abs(mean[1]-0.5) > 0.04 {
		t.Errorf("hit-and-run mean = %v, want ~(0.5, 0.5)", mean)
	}
	if w.AcceptanceRate() < 0.95 {
		t.Errorf("hit-and-run acceptance = %g, want ~1", w.AcceptanceRate())
	}
}

func TestHitAndRunSecondMoment(t *testing.T) {
	// On [0,1], uniform second moment about 0.5 is 1/12.
	r := rng.New(7)
	seg := polytope.FromTuple(constraint.Cube(1, 0, 1))
	w, err := New(seg, linalg.Vector{0.5}, r, Config{Kind: HitAndRun})
	if err != nil {
		t.Fatal(err)
	}
	var m2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		p := w.Sample(5)
		m2 += (p[0] - 0.5) * (p[0] - 0.5)
	}
	m2 /= n
	if math.Abs(m2-1.0/12) > 0.004 {
		t.Errorf("second moment = %g, want %g", m2, 1.0/12)
	}
}

func TestHitAndRunMembershipOnlyBody(t *testing.T) {
	// Ball given only by membership (chord via bisection).
	r := rng.New(8)
	type oracleOnly struct{ BallBody }
	ball := BallBody{Center: linalg.Vector{0, 0}, Radius: 1}
	body := struct{ Body }{Body: oracleBody{ball}}
	w, err := New(body, linalg.Vector{0, 0}, r, Config{Kind: HitAndRun, OuterRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	var meanNorm float64
	const n = 2000
	for i := 0; i < n; i++ {
		p := w.Sample(15)
		if p.Norm() > 1+1e-6 {
			t.Fatalf("left the ball: %v", p)
		}
		meanNorm += p.Norm()
	}
	meanNorm /= n
	// Uniform disk: E|X| = 2/3.
	if math.Abs(meanNorm-2.0/3) > 0.03 {
		t.Errorf("mean radius = %g, want 2/3", meanNorm)
	}
	_ = oracleOnly{}
}

// oracleBody strips the Chord method from a body, leaving membership only.
type oracleBody struct{ b Body }

func (o oracleBody) Dim() int                      { return o.b.Dim() }
func (o oracleBody) Contains(x linalg.Vector) bool { return o.b.Contains(x) }

func TestHitAndRunMembershipOnlyNeedsOuterRadius(t *testing.T) {
	r := rng.New(9)
	ball := oracleBody{BallBody{Center: linalg.Vector{0, 0}, Radius: 1}}
	if _, err := New(ball, linalg.Vector{0, 0}, r, Config{Kind: HitAndRun}); err == nil {
		t.Error("membership-only hit-and-run without OuterRadius must fail")
	}
}

func TestStartOutsideRejected(t *testing.T) {
	r := rng.New(10)
	if _, err := New(square(), linalg.Vector{5, 5}, r, Config{Kind: HitAndRun}); err == nil {
		t.Error("start outside must fail")
	}
}

func TestBallBodyChord(t *testing.T) {
	b := BallBody{Center: linalg.Vector{0, 0}, Radius: 2}
	lo, hi, ok := b.Chord(linalg.Vector{0, 0}, linalg.Vector{1, 0})
	if !ok || math.Abs(lo+2) > 1e-12 || math.Abs(hi-2) > 1e-12 {
		t.Errorf("chord = [%g, %g] ok=%v", lo, hi, ok)
	}
	// Line missing the ball.
	_, _, ok = b.Chord(linalg.Vector{0, 5}, linalg.Vector{1, 0})
	if ok {
		t.Error("missing line must report !ok")
	}
}

func TestIntersectionBody(t *testing.T) {
	ball := BallBody{Center: linalg.Vector{0, 0}, Radius: 1}
	halfPlane := polytope.New([]linalg.Vector{{0, -1}}, []float64{0}) // y >= 0
	ib := IntersectionBody{Bodies: []Body{ball, halfPlane}}
	if !ib.Contains(linalg.Vector{0, 0.5}) || ib.Contains(linalg.Vector{0, -0.5}) {
		t.Error("intersection membership wrong")
	}
	lo, hi, ok := ib.Chord(linalg.Vector{0, 0.5}, linalg.Vector{0, 1})
	if !ok || math.Abs(lo+0.5) > 1e-9 || math.Abs(hi-0.5) > 1e-9 {
		t.Errorf("intersection chord = [%g, %g] ok=%v", lo, hi, ok)
	}
}

func TestMappedBody(t *testing.T) {
	// Map the unit square by scaling 2x; mapped body contains (1.5, 1.5).
	m := linalg.NewMatrix(2, 2)
	copy(m.Data, []float64{2, 0, 0, 2})
	am, err := linalg.NewAffineMap(m, linalg.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	mb := MappedBody{Orig: square(), Map: am}
	if !mb.Contains(linalg.Vector{1.5, 1.5}) || mb.Contains(linalg.Vector{2.5, 0.5}) {
		t.Error("mapped membership wrong")
	}
	// Chord transfers: through the centre along x, [−1, 1] around (1,1).
	lo, hi, ok := mb.Chord(linalg.Vector{1, 1}, linalg.Vector{1, 0})
	if !ok || math.Abs(lo+1) > 1e-9 || math.Abs(hi-1) > 1e-9 {
		t.Errorf("mapped chord = [%g, %g] ok=%v", lo, hi, ok)
	}
}

// TestMappedBodyChordFarFromOrigin: a direction carries no translation,
// so a chord's parameters must not depend on where the image sits. The
// 2×-scaled unit square translated by (10⁸, 10⁸) has the chord ±1.25
// from its centre along (0.6, 0.8).
func TestMappedBodyChordFarFromOrigin(t *testing.T) {
	m := linalg.NewMatrix(2, 2)
	copy(m.Data, []float64{2, 0, 0, 2})
	am, err := linalg.NewAffineMap(m, linalg.Vector{1e8, 1e8})
	if err != nil {
		t.Fatal(err)
	}
	mb := MappedBody{Orig: square(), Map: am}
	lo, hi, ok := mb.Chord(linalg.Vector{1e8 + 1, 1e8 + 1}, linalg.Vector{0.6, 0.8})
	if !ok || math.Abs(lo+1.25) > 1e-12 || math.Abs(hi-1.25) > 1e-12 {
		t.Errorf("mapped chord at T = 1e8 = [%.12g, %.12g] ok=%v, want ±1.25", lo, hi, ok)
	}
}

func TestPolytopeChord(t *testing.T) {
	p := square()
	lo, hi, ok := p.Chord(linalg.Vector{0.5, 0.5}, linalg.Vector{1, 0})
	if !ok || math.Abs(lo+0.5) > 1e-12 || math.Abs(hi-0.5) > 1e-12 {
		t.Errorf("chord = [%g, %g] ok=%v", lo, hi, ok)
	}
	// Diagonal direction.
	s := 1 / math.Sqrt2
	lo, hi, ok = p.Chord(linalg.Vector{0.5, 0.5}, linalg.Vector{s, s})
	want := 0.5 * math.Sqrt2
	if !ok || math.Abs(hi-want) > 1e-9 || math.Abs(lo+want) > 1e-9 {
		t.Errorf("diagonal chord = [%g, %g]", lo, hi)
	}
	// Unbounded direction returns an infinite upper bound (ok), which
	// the walker then rejects; a line missing the polytope reports !ok.
	unb := polytope.New([]linalg.Vector{{-1, 0}}, []float64{0})
	if _, hiU, ok := unb.Chord(linalg.Vector{1, 0}, linalg.Vector{1, 0}); !ok || !math.IsInf(hiU, 1) {
		t.Error("unbounded chord must report ok with +Inf upper bound")
	}
	miss := polytope.New([]linalg.Vector{{1, 0}, {-1, 0}}, []float64{1, 0})
	if _, _, ok := miss.Chord(linalg.Vector{5, 0}, linalg.Vector{0, 1}); ok {
		t.Error("line missing the slab must report !ok")
	}
}

func TestDefaultStepBudgets(t *testing.T) {
	if DefaultGridSteps(2, 1, 10) < 2000 {
		t.Error("grid steps floor broken")
	}
	if DefaultGridSteps(50, 100, 1000) > 2e6 {
		t.Error("grid steps cap broken")
	}
	if DefaultHitAndRunSteps(2, 1) < 48 {
		t.Error("hit-and-run floor broken")
	}
	if DefaultHitAndRunSteps(10, 1) <= DefaultHitAndRunSteps(2, 1) {
		t.Error("hit-and-run steps must grow with d")
	}
}

func TestKindString(t *testing.T) {
	if GridWalk.String() != "grid" || BallWalk.String() != "ball" || HitAndRun.String() != "hit-and-run" {
		t.Error("Kind.String misbehaves")
	}
}

func TestWalkerStats(t *testing.T) {
	// Grid walk: every non-lazy step queries the oracle exactly once.
	r := rng.New(11)
	g := geom.NewGrid(2, 0.1)
	w, err := New(square(), linalg.Vector{0.5, 0.5}, r, Config{Kind: GridWalk, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(500)
	st := w.Stats()
	if st.Steps != 500 {
		t.Fatalf("Steps = %d, want 500", st.Steps)
	}
	if st.OracleCalls <= 0 || st.OracleCalls > 500 {
		t.Fatalf("grid OracleCalls = %d, want in (0, 500]", st.OracleCalls)
	}
	if st.Accepted <= 0 || st.Accepted > st.OracleCalls {
		t.Fatalf("Accepted = %d vs oracle %d", st.Accepted, st.OracleCalls)
	}
	if st.InterruptPolls != 0 {
		t.Fatalf("InterruptPolls = %d without a hook", st.InterruptPolls)
	}

	// Hit-and-run: chord + endpoint guard per step, two oracle calls.
	w2, err := New(square(), linalg.Vector{0.5, 0.5}, rng.New(12), Config{
		Kind:      HitAndRun,
		Interrupt: func() error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	w2.Run(128)
	st2 := w2.Stats()
	if st2.Steps != 128 || st2.OracleCalls != 256 {
		t.Fatalf("hit-and-run stats = %+v, want 128 steps / 256 oracle calls", st2)
	}
	// 128 steps poll at i = 0, 32, 64, 96.
	if st2.InterruptPolls != 4 {
		t.Fatalf("InterruptPolls = %d, want 4", st2.InterruptPolls)
	}
}

// foldMap is a sheared, scaled affine map with a translation: folding an
// H-polytope through it is what rounding does to every polytope it
// rounds. It sends the origin to (0.1, −0.1, 0.2).
func foldMap(t testing.TB) *linalg.AffineMap {
	t.Helper()
	m := linalg.NewMatrix(3, 3)
	copy(m.Data, []float64{1.5, 0.4, 0, -0.3, 0.8, 0.2, 0.1, 0, 2})
	am, err := linalg.NewAffineMap(m, linalg.Vector{0.1, -0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return am
}

// foldedSlab is a 3-D slab of width 10⁻² folded through am.
func foldedSlab(am *linalg.AffineMap) *polytope.Polytope {
	slab := polytope.FromTuple(constraint.Box(linalg.Vector{-1, -1, -0.005}, linalg.Vector{1, 1, 0.005}))
	return slab.Image(am)
}

// foldedCut is the cube [−1, 1]³ cut by three random planes at distance
// 0.8 from the origin, folded through am.
func foldedCut(am *linalg.AffineMap) *polytope.Polytope {
	p := polytope.FromTuple(constraint.Cube(3, -1, 1))
	r := rng.New(14)
	for k := 0; k < 3; k++ {
		n := make(linalg.Vector, 3)
		r.OnSphere(n)
		p = p.WithHalfspace(n, 0.8)
	}
	return p.Image(am)
}

// trackedRows returns the bound polytope inside a walker's binding.
func trackedRows(tr tracker) *boundRows {
	switch o := tr.(type) {
	case *boundRows:
		return o
	case boundIntersection:
		for _, m := range o {
			if rows := trackedRows(m); rows != nil {
				return rows
			}
		}
	}
	return nil
}

// TestHitAndRunTracksRows: a million hit-and-run steps, with no Run to
// resynchronise them, over a folded thin slab and over a folded polytope
// ∩ ball. Every accepted position passes a fresh membership test, and
// the row values the walker carries end within 10⁻⁹ of a recompute.
func TestHitAndRunTracksRows(t *testing.T) {
	am := foldMap(t)
	slab, cut := foldedSlab(am), foldedCut(am)
	ball := BallBody{Center: center(3), Radius: 1}
	for _, b := range []struct {
		name    string
		body    Body
		poly    *polytope.Polytope
		outside func(x linalg.Vector) bool
	}{
		{"folded-slab", slab, slab, func(linalg.Vector) bool { return false }},
		{"folded-cut∩ball", IntersectionBody{Bodies: []Body{cut, ball}}, cut,
			func(x linalg.Vector) bool { return !ball.Contains(x) }},
	} {
		w, err := New(b.body, am.T, rng.New(15), Config{Kind: HitAndRun})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		const steps = 1_000_000
		for i := 0; i < steps; i++ {
			accepted := w.accepted
			w.Step()
			if w.accepted == accepted {
				continue
			}
			if x := w.Current(); !b.poly.Contains(x) || b.outside(x) {
				t.Fatalf("%s: step %d accepted %v outside the body", b.name, i, x)
			}
		}
		if w.AcceptanceRate() < 0.99 {
			t.Errorf("%s: acceptance %.4f, want ~1", b.name, w.AcceptanceRate())
		}
		rows := trackedRows(w.own)
		if rows == nil {
			t.Fatalf("%s: walker does not track the polytope's rows", b.name)
		}
		for i, row := range b.poly.A {
			if got, want := rows.ax[i], row.Dot(w.Current()); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: row %d tracked %.17g, recomputed %.17g after %d steps", b.name, i, got, want, steps)
			}
		}
	}
}
