// Alibi example: moving objects as linear constraint relations.
//
// Two commuters are observed at a handful of timestamped positions,
// each with a known maximum speed. Between fixes, physics confines each
// to a space-time prism (bead) — a convex set of (x, y, t) — so a whole
// trajectory is exactly a generalized relation of the paper, and every
// question below is answered by the library's uniform generators:
//
//   - "where could A have been at t = 2.5?"  — the time-slice operator
//     plus sampling and area estimation of the snapshot,
//   - "could A and B have met in some window?" — the alibi query,
//     answered by sampling the meet region AND exactly by
//     Fourier–Motzkin elimination, cross-checked.
package main

import (
	"fmt"
	"log"

	cdb "repro"
)

func main() {
	// Two commuters with speed bound 3: A drives east along the x-axis,
	// B drives south crossing A's path around t = 5.
	a, err := cdb.NewTrajectory("A", 3, 0,
		cdb.Observation{T: 0, P: cdb.Vector{0, 0}},
		cdb.Observation{T: 5, P: cdb.Vector{10, 0}},
		cdb.Observation{T: 10, P: cdb.Vector{20, 0}},
	)
	if err != nil {
		log.Fatal(err)
	}
	b, err := cdb.NewTrajectory("B", 3, 0,
		cdb.Observation{T: 0, P: cdb.Vector{10, 10}},
		cdb.Observation{T: 5, P: cdb.Vector{10, 1}},
		cdb.Observation{T: 10, P: cdb.Vector{10, -10}},
	)
	if err != nil {
		log.Fatal(err)
	}
	relA, relB := a.Relation(), b.Relation()
	fmt.Printf("trajectory A: %d observations -> %d space-time prisms over (x, y, t)\n",
		len(a.Obs), len(relA.Tuples))
	fmt.Printf("trajectory B: %d observations -> %d space-time prisms\n\n", len(b.Obs), len(relB.Tuples))

	opts := cdb.DefaultOptions()

	// 1. Time slice: where could A have been at t = 2.5? The snapshot is
	//    a convex region between A's first two fixes; prepare its
	//    sampler once (rounding, volume), then bind a generator to
	//    sample it and read its area.
	slice, err := cdb.TimeSlice(relA, 2.5)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := cdb.PrepareSampler(slice, 1, opts)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := ps.NewObservable(2)
	if err != nil {
		log.Fatal(err)
	}
	area, err := gen.Volume()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot A @ t=2.5: area ≈ %.2f; five possible positions:\n", area)
	for i := 0; i < 5; i++ {
		p, err := gen.Sample()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  (%6.2f, %6.2f)\n", p[0], p[1])
	}

	// A slice outside the support is empty — the degenerate case servers
	// must answer cleanly.
	empty, err := cdb.TimeSlice(relA, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot A @ t=99: %d feasible tuples (outside the support)\n\n", len(empty.Tuples))

	// 2. Alibi query over the whole day: the trajectories cross near
	//    (10, 0) just before and after t = 5, so the alibi fails.
	rep, err := cdb.AlibiQuery(relA, relB, 0, 10, 7, 1, opts)
	if err != nil {
		log.Fatal(err)
	}
	describe("alibi(A, B) on [0, 10]", rep)

	// 3. Restricted to the early window [0, 1] the objects are too far
	//    apart for their speed bounds: the alibi holds, and both the
	//    sampler and the exact elimination agree.
	rep, err = cdb.AlibiQuery(relA, relB, 0, 1, 7, 1, opts)
	if err != nil {
		log.Fatal(err)
	}
	describe("alibi(A, B) on [0, 1]", rep)
}

func describe(title string, rep *cdb.AlibiReport) {
	fmt.Printf("%s:\n", title)
	verdict := "REFUTED (they could not have met)"
	if rep.Meet {
		verdict = "POSSIBLE (they could have met)"
	}
	fmt.Printf("  verdict: %s\n", verdict)
	fmt.Printf("  sampling: meeting-volume ≈ %.4g (ε=%.2g, confidence %.0f%%)\n",
		rep.Volume, rep.RelErr, 100*rep.Confidence)
	fmt.Printf("  symbolic (Fourier–Motzkin): meet=%v", rep.SymbolicMeet)
	for _, iv := range rep.MeetTimes {
		fmt.Printf(" [%.3g, %.3g]", iv.Lo, iv.Hi)
	}
	fmt.Println()
	fmt.Printf("  cross-check consistent: %v\n\n", rep.Consistent)
}
