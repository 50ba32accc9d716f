package main

// adhoc_sql: one closed-loop client sending CDB-SQL statements that are
// all new — fresh WHERE constants from the seed over 2–3-D relations —
// so compile, prepare and Fourier–Motzkin elimination do the work and
// the walk does little. The stream mixes SAMPLE 16, VOLUME(*), bare
// EXISTS (FM elimination) and EXPLAIN; its working set outgrows the
// 64-entry prepared cache.

import (
	"context"
	"fmt"
	"math"
	"time"

	cdb "repro"
	"repro/internal/constraint"
)

// adhocStreamLen bounds a run's statement stream; a 20 s run uses ~150.
const adhocStreamLen = 5000

// adhocHandle is an opened adhoc_sql database.
type adhocHandle struct {
	db    *cdb.DB
	bases []adhocBase
}

// openAdhoc opens the program and prepares each base relation once, so
// the timed statements are cold only in their own WHERE cuts.
func openAdhoc(ctx context.Context, src string, bases []adhocBase) (*adhocHandle, error) {
	db, err := cdb.Open(src)
	if err != nil {
		return nil, fmt.Errorf("open adhoc program: %w", err)
	}
	for _, b := range bases {
		if _, err := db.Rel(b.Name).Sampler(ctx); err != nil {
			db.Close()
			return nil, fmt.Errorf("prepare %s: %w", b.Name, err)
		}
	}
	return &adhocHandle{db: db, bases: bases}, nil
}

// checkStatement verifies one ExecSQL answer against the statement's
// exact evaluation.
func checkStatement(ctx context.Context, db *cdb.DB, st statement, res *cdb.SQLResult, t *tally) error {
	switch st.Kind {
	case "sample", "volume", "exists":
		o, err := sqlOracle(db.Database(), st.Text)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		switch st.Kind {
		case "sample":
			return o.checkPoints(res.Points, 16)
		case "volume":
			exact, err := o.volume()
			if err != nil {
				return fmt.Errorf("exact volume: %w", err)
			}
			t.volume(res.Volume, exact, db.Options().Params.Eps)
			return nil
		default:
			return sameRelation(res.Relation, o.rel)
		}
	case "explain":
		e, err := db.SQL(ctx, st.Text)
		if err != nil {
			return err
		}
		key, err := e.CanonicalKey()
		if err != nil {
			return err
		}
		if res.Explain == nil || res.Explain.CanonicalKey != key {
			return fmt.Errorf("EXPLAIN key differs from Expr.CanonicalKey %q", key)
		}
		return nil
	}
	return fmt.Errorf("unknown statement kind %q", st.Kind)
}

// sameRelation compares two DNF relations atom by atom, bit for bit.
func sameRelation(got, want *constraint.Relation) error {
	if got == nil || len(got.Tuples) == 0 {
		return fmt.Errorf("empty relation")
	}
	if got.Arity() != want.Arity() || len(got.Tuples) != len(want.Tuples) {
		return fmt.Errorf("relation shape %d×%d, want %d×%d", got.Arity(), len(got.Tuples), want.Arity(), len(want.Tuples))
	}
	for i, gt := range got.Tuples {
		wt := want.Tuples[i]
		if len(gt.Atoms) != len(wt.Atoms) {
			return fmt.Errorf("tuple %d has %d atoms, want %d", i, len(gt.Atoms), len(wt.Atoms))
		}
		for j, a := range gt.Atoms {
			b := wt.Atoms[j]
			if math.Float64bits(a.B) != math.Float64bits(b.B) || a.Strict != b.Strict || len(a.Coef) != len(b.Coef) {
				return fmt.Errorf("tuple %d atom %d differs", i, j)
			}
			for k := range a.Coef {
				if math.Float64bits(a.Coef[k]) != math.Float64bits(b.Coef[k]) {
					return fmt.Errorf("tuple %d atom %d differs", i, j)
				}
			}
		}
	}
	return nil
}

// answerHash fingerprints an ExecSQL answer for the traced replay's
// byte-identity check.
func answerHash(res *cdb.SQLResult) uint64 {
	switch {
	case res.Points != nil:
		return pointsHash(res.Points)
	case res.Explain != nil:
		return stringHash(res.Explain.CanonicalKey)
	case res.Relation != nil:
		return stringHash(res.Relation.Source())
	default:
		return math.Float64bits(res.Volume)
	}
}

func stringHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// runAdhoc is the untraced facade loop over the statement stream.
func runAdhoc(ctx context.Context, h *adhocHandle, stream []statement, d time.Duration, keep bool) (*tally, []served, error) {
	t := &tally{}
	var log []served
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if i == len(stream) {
			return nil, nil, fmt.Errorf("adhoc stream exhausted after %d statements", i)
		}
		st := stream[i]
		t0 := time.Now()
		res, err := h.db.ExecSQL(ctx, st.Text)
		lat := time.Since(t0)
		if err == nil {
			err = checkStatement(ctx, h.db, st, res, t)
		}
		var pts int
		if err == nil {
			pts = len(res.Points)
			if keep {
				log = append(log, served{i: i, latency: lat, hash: answerHash(res)})
			}
		}
		t.record(i, lat, pts, st.Text, err)
	}
	return t, log, nil
}

func adhocSQL(ctx context.Context, seed uint64, d time.Duration) (*result, error) {
	src, bases := adhocProgram()
	stream := adhocStream(seed, bases, adhocStreamLen)
	h, setups, err := setupRepeated(setupRepeats, func() (*adhocHandle, error) { return openAdhoc(ctx, src, bases) },
		func(h *adhocHandle) { h.db.Close() })
	if err != nil {
		return nil, err
	}
	defer h.db.Close()
	t, _, err := runAdhoc(ctx, h, stream, d, false)
	if err != nil {
		return nil, err
	}
	return finish(t, 1, len(adhocKinds), 0.90, setups), nil
}
