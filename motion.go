package cdb

// Moving-object (spatio-temporal) facade: trajectories as unions of
// space-time prisms, the time-slice operator and alibi queries. See
// internal/spacetime for the model and cmd/cdbmotion for the CLI.

import (
	"context"

	"repro/internal/runtime"
	"repro/internal/spacetime"
)

// Observation is one timestamped position fix of a moving object.
type Observation = spacetime.Observation

// Trajectory is a moving object reconstructed from observations under a
// speed bound: a union of convex space-time prisms over (x_1..x_d, t).
// Trajectory.Relation() plugs into every sampler in this package.
type Trajectory = spacetime.Trajectory

// AlibiReport is the two-sided verdict of an alibi query: the sampling
// answer (meeting-volume estimate), the symbolic Fourier–Motzkin answer
// (exact meeting-time intervals) and their consistency flag.
type AlibiReport = spacetime.Report

// TimeInterval is a closed interval of timestamps.
type TimeInterval = spacetime.Interval

// NewTrajectory builds a trajectory from timestamped observations and a
// speed bound; facets tunes the polyhedral speed ball (0 = default).
func NewTrajectory(name string, vmax float64, facets int, obs ...Observation) (*Trajectory, error) {
	return spacetime.NewTrajectory(name, vmax, facets, obs...)
}

// TimeSlice fixes t = t0 in a space-time relation (time column = the
// column named "t", or the last one) and returns the convex snapshot
// relation over the spatial coordinates. The result has zero tuples
// when t0 lies outside the relation's support.
func TimeSlice(rel *Relation, t0 float64) (*Relation, error) {
	return spacetime.TimeSlice(rel, spacetime.TimeColumn(rel), t0)
}

// TimeWindow restricts a space-time relation to t ∈ [t0, t1], keeping
// the arity.
func TimeWindow(rel *Relation, t0, t1 float64) (*Relation, error) {
	return spacetime.TimeWindow(rel, spacetime.TimeColumn(rel), t0, t1)
}

// AlibiQuery answers "could the objects of relations a and b have met
// during [t0, t1]?" by sampling (meeting-volume estimate, median-of-k
// when k > 1) and symbolically by Fourier–Motzkin elimination,
// cross-checked in the returned report.
func AlibiQuery(a, b *Relation, t0, t1 float64, seed uint64, k int, opts Options) (*AlibiReport, error) {
	pa, err := runtime.PrepareAlibi(a, b, t0, t1, seed, opts, nil)
	if err != nil {
		return nil, err
	}
	return pa.Report(context.Background(), seed, k)
}

// TimeSupport returns the time extent [lo, hi] of a space-time
// relation; ok is false for empty or time-unbounded relations.
func TimeSupport(rel *Relation) (lo, hi float64, ok bool) {
	return spacetime.Support(rel, spacetime.TimeColumn(rel))
}
