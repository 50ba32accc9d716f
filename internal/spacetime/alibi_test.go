package spacetime_test

import (
	"context"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/spacetime"
)

func fastOpts() core.Options {
	return core.Options{MaxPhaseSamples: 200}
}

// alibi answers the alibi query the way cdb.AlibiQuery does: prepare
// the meet region under seed, then report with median-of-k.
func alibi(a, b *constraint.Relation, t0, t1 float64, seed uint64, k int, opts core.Options) (*spacetime.Report, error) {
	pa, err := runtime.PrepareAlibi(a, b, t0, t1, seed, opts, nil)
	if err != nil {
		return nil, err
	}
	return pa.Report(context.Background(), seed, k)
}

// twoCommuters builds a hand-made pair whose meeting window is known:
// both pass near the origin-side of the x axis around t = 5.
func twoCommuters(t *testing.T) (a, b *constraint.Relation) {
	t.Helper()
	ta, err := spacetime.NewTrajectory("A", 3, 0,
		spacetime.Observation{T: 0, P: linalg.Vector{0, 0}},
		spacetime.Observation{T: 5, P: linalg.Vector{10, 0}},
		spacetime.Observation{T: 10, P: linalg.Vector{20, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := spacetime.NewTrajectory("B", 3, 0,
		spacetime.Observation{T: 0, P: linalg.Vector{10, 10}},
		spacetime.Observation{T: 5, P: linalg.Vector{10, 1}},
		spacetime.Observation{T: 10, P: linalg.Vector{10, -10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ta.Relation(), tb.Relation()
}

func TestAlibiMeetAndRefute(t *testing.T) {
	a, b := twoCommuters(t)

	// Full window: the objects cross near (10, 0) around t = 5.
	rep, err := alibi(a, b, 0, 10, 42, 1, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SymbolicMeet {
		t.Error("symbolic path should find a meeting")
	}
	if !rep.Meet || rep.Volume <= 0 {
		t.Errorf("sampling path should find a meeting (volume %g)", rep.Volume)
	}
	if !rep.Consistent {
		t.Error("verdicts should agree")
	}
	if len(rep.MeetTimes) == 0 {
		t.Fatal("no meeting-time intervals")
	}
	// At t = 5 the observations pin A to (10, 0) and B to (10, 1) — one
	// unit apart — so no meeting interval may contain t = 5; the
	// possible meetings cluster on both sides of it.
	near := false
	for _, iv := range rep.MeetTimes {
		if iv.Lo <= 5 && 5 <= iv.Hi {
			t.Errorf("meeting interval [%g, %g] contains the pinned-apart time t = 5", iv.Lo, iv.Hi)
		}
		if iv.Lo >= iv.Hi {
			t.Errorf("degenerate meeting interval [%g, %g]", iv.Lo, iv.Hi)
		}
		if (iv.Hi > 4 && iv.Hi < 5) || (iv.Lo > 5 && iv.Lo < 6) {
			near = true
		}
	}
	if !near {
		t.Errorf("no meeting interval near the crossing: %v", rep.MeetTimes)
	}

	// Early window: at t ∈ [0, 1], A is near the origin and B is ten
	// units away with speed bound 3 — no meeting possible.
	rep, err = alibi(a, b, 0, 1, 42, 1, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SymbolicMeet || rep.Meet {
		t.Errorf("alibi should hold in [0, 1]: symbolic=%v sampling=%v", rep.SymbolicMeet, rep.Meet)
	}
	if !rep.Consistent {
		t.Error("verdicts should agree on the refutation")
	}
	if rep.Volume != 0 {
		t.Errorf("refuted alibi volume = %g, want 0", rep.Volume)
	}
}

func TestAlibiMedianAmplification(t *testing.T) {
	a, b := twoCommuters(t)
	rep, err := alibi(a, b, 0, 10, 7, 3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Meet || rep.Volume <= 0 {
		t.Errorf("median-of-3 alibi lost the meeting (volume %g)", rep.Volume)
	}
}

func TestAlibiArityMismatch(t *testing.T) {
	a, _ := twoCommuters(t)
	flat := constraint.MustRelation("F", []string{"x", "t"}, constraint.Cube(2, 0, 1))
	if _, err := alibi(a, flat, 0, 1, 1, 1, fastOpts()); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Same arity but a permuted frame: intersecting positionally would
	// silently read b's time column as a position.
	permuted := constraint.MustRelation("P", []string{"t", "x", "y"}, constraint.Cube(3, 0, 1))
	if _, err := alibi(a, permuted, 0, 1, 1, 1, fastOpts()); err == nil {
		t.Error("column-order mismatch should fail")
	}
}

// TestAlibiCrossCheckSuite is the acceptance suite: on generated
// trajectory pairs — half engineered to meet, half provably separated —
// the sampling verdict must agree with the exact Fourier–Motzkin one.
func TestAlibiCrossCheckSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("alibi cross-check suite skipped in -short mode")
	}
	const pairs = 12 // per class; ≥ 20 verdicts in total
	cfg := dataset.TrajectoryConfig{Steps: 3}
	opts := fastOpts()

	meets, refutes := 0, 0
	for i := 0; i < pairs; i++ {
		r := rng.New(uint64(1000 + i))
		a, b := dataset.CrossingPair(r, cfg)
		ra, rb := a.Relation(), b.Relation()
		lo, hi := a.Support()
		rep, err := alibi(ra, rb, lo, hi, uint64(i+1), 1, opts)
		if err != nil {
			t.Fatalf("crossing pair %d: %v", i, err)
		}
		if !rep.SymbolicMeet {
			t.Errorf("crossing pair %d: symbolic path missed the engineered meeting", i)
		}
		if !rep.Consistent {
			t.Errorf("crossing pair %d: verdicts disagree (sampling=%v symbolic=%v volume=%g pruned=%d)",
				i, rep.Meet, rep.SymbolicMeet, rep.Volume, rep.PrunedTuples)
		}
		if rep.Meet {
			meets++
		}
	}
	for i := 0; i < pairs; i++ {
		r := rng.New(uint64(2000 + i))
		a, b := dataset.SeparatedPair(r, cfg)
		ra, rb := a.Relation(), b.Relation()
		lo, hi := a.Support()
		rep, err := alibi(ra, rb, lo, hi, uint64(i+1), 1, opts)
		if err != nil {
			t.Fatalf("separated pair %d: %v", i, err)
		}
		if rep.SymbolicMeet {
			t.Errorf("separated pair %d: symbolic path found a phantom meeting", i)
		}
		if !rep.Consistent {
			t.Errorf("separated pair %d: verdicts disagree (sampling=%v symbolic=%v volume=%g)",
				i, rep.Meet, rep.SymbolicMeet, rep.Volume)
		}
		if !rep.Meet {
			refutes++
		}
	}
	if meets != pairs || refutes != pairs {
		t.Fatalf("agreement: %d/%d meets, %d/%d refutations", meets, pairs, refutes, pairs)
	}
	t.Logf("alibi cross-check: %d meet + %d no-meet pairs, all consistent", meets, refutes)
}
