package core

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/polytope"
	"repro/internal/rng"
)

// NewRelationObservable builds the paper's generator for an arbitrary
// well-bounded generalized relation: every relation is a finite union of
// generalized tuples (DNF), each tuple is convex and gets the DFK
// generator, and the union combinator of Theorem 4.1 / Corollary 4.2
// stitches them together. Empty tuples are pruned first (the proof's
// "exponentially smaller relations can be considered empty" step is
// realised by the LP emptiness check).
//
// PrepareRelationFanout in prepared.go mirrors this setup for the
// cacheable prepare/bind split, splitting every tuple's generator from r
// before it prepares any tuple; mirror edits in both.
func NewRelationObservable(rel *constraint.Relation, r *rng.RNG, opts Options) (Observable, error) {
	pruned := rel.PruneEmpty()
	if len(pruned.Tuples) == 0 {
		return nil, fmt.Errorf("core: relation %q is empty", rel.Name)
	}
	members := make([]Observable, 0, len(pruned.Tuples))
	for i, t := range pruned.Tuples {
		conv, err := NewConvexPolytope(polytope.FromTuple(t), r.Split(), opts)
		if err != nil {
			return nil, fmt.Errorf("core: relation %q tuple %d: %w", rel.Name, i, err)
		}
		members = append(members, conv)
	}
	if len(members) == 1 {
		return members[0], nil
	}
	return NewUnion(members, r.Split(), opts)
}

// NewTupleObservable builds the DFK generator for a single generalized
// tuple (a convex relation).
func NewTupleObservable(t constraint.Tuple, r *rng.RNG, opts Options) (*Convex, error) {
	return NewConvexPolytope(polytope.FromTuple(t), r, opts)
}
