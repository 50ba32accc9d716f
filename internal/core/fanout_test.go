package core_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/rng"
	"repro/internal/walk"
)

// fanoutWidths are the fan-out widths compared against the inline run.
var fanoutWidths = []int{1, 2, 8}

// preparationBits renders everything a preparation under fan determines
// as float64 bits: the member volumes, the (ε, δ) ledger, each tuple's
// volume-pass walk effort and a seeded 64-point draw with its effort.
func preparationBits(t *testing.T, rel *constraint.Relation, opts core.Options, fan *core.Fanout) []string {
	t.Helper()
	bits := func(xs ...float64) string {
		var b strings.Builder
		for _, x := range xs {
			fmt.Fprintf(&b, "%016x ", math.Float64bits(x))
		}
		return b.String()
	}
	pr, err := core.PrepareRelationFanout(rel, rng.New(77), opts, fan)
	if err != nil {
		t.Fatal(err)
	}
	out := []string{"volumes " + bits(pr.MemberVolumes()...)}
	acc, ok := pr.VolumeAccuracy()
	out = append(out, fmt.Sprintf("ledger %v %s%v %d", ok,
		bits(acc.RequestedEps, acc.RequestedDelta, acc.AchievedEps, acc.AchievedDelta), acc.Capped, acc.Probes))
	for i, tu := range rel.Tuples {
		c, err := core.NewConvexPolytope(polytope.FromTuple(tu), rng.New(uint64(100+i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.VolumeFanout(c, fan)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("tuple %d volume %s effort %+v", i, bits(v), core.EffortOf(c)))
	}
	o, err := pr.Bind(rng.New(78))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		x, err := o.Sample()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("draw %d %s", i, bits(x...)))
	}
	return append(out, fmt.Sprintf("draw effort %+v", core.EffortOf(o)))
}

// TestFanoutPreparationBitIdentical prepares a multi-tuple 3-D relation
// and perfbench's d = 6 shape inline and at fan-out widths 1, 2 and 8:
// every width must reproduce the inline run bit for bit. CI runs it
// under -race -count=10, so the phase budget is kept small.
func TestFanoutPreparationBitIdentical(t *testing.T) {
	opts := core.Options{Walk: walk.HitAndRun, MaxPhaseSamples: 24}
	union3 := constraint.MustRelation("U3", []string{"x", "y", "z"},
		constraint.Box(linalg.Vector{0, 0, 0}, linalg.Vector{2, 1, 1}),
		constraint.Box(linalg.Vector{1, 0, 0}, linalg.Vector{3, 2, 1}),
		constraint.Simplex(3, 2))
	shape6 := dataset.RandomPolytope(rng.New(shapeSeed+606), 6, 6, 0.8)
	k6 := constraint.MustRelation("K6", []string{"a", "b", "c", "d", "e", "f"}, shape6.Tuple())
	for _, rel := range []*constraint.Relation{union3, k6} {
		t.Run(rel.Name, func(t *testing.T) {
			want := preparationBits(t, rel, opts, nil)
			for _, w := range fanoutWidths {
				got := preparationBits(t, rel, opts, core.NewFanout(w))
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("width %d: %s\ninline:  %s", w, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestFanoutFirstErrorAndPanic checks that every width, nil included,
// reports the lowest failing unit, and that a panicking unit comes back
// as that unit's error with a stack naming the function that panicked.
func TestFanoutFirstErrorAndPanic(t *testing.T) {
	errA, errB := errors.New("unit 5"), errors.New("unit 6")
	unit := func(i int) error {
		switch i {
		case 5:
			return errA
		case 6:
			return errB
		}
		return nil
	}
	fans := []*core.Fanout{nil, core.NewFanout(1), core.NewFanout(2), core.NewFanout(8)}
	for _, fan := range fans {
		if i, err := core.FanoutEach(fan, 8, unit); i != 5 || err != errA {
			t.Errorf("each = (%d, %v), want (5, %v)", i, err, errA)
		}
		if i, err := core.FanoutEach(fan, 8, func(int) error { return nil }); i != 8 || err != nil {
			t.Errorf("each = (%d, %v), want (8, nil)", i, err)
		}
		i, err := core.FanoutEach(fan, 4, panicOnUnit1)
		if i != 1 || err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Errorf("each = (%d, %v), want unit 1's panic as its error", i, err)
		} else if !strings.Contains(err.Error(), "core_test.panicOnUnit1(") {
			t.Errorf("unit 1's panic error does not name panicOnUnit1:\n%v", err)
		}
	}
}

// panicOnUnit1 is a preparation unit that panics on unit 1.
func panicOnUnit1(i int) error {
	if i == 1 {
		panic("boom")
	}
	return nil
}
