package runtime

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/polytope"
)

// AuditConfig tunes the background self-audit of warm cached samplers
// against their exact symbolic volumes. The zero value picks defaults;
// Interval 0 disables the background loop (RunOnce stays available).
type AuditConfig struct {
	// Interval between background audit sweeps (0 = no background
	// goroutine; audits run only via RunOnce).
	Interval time.Duration
	// Batch is the number of fresh draws per audited entry per round
	// (default 256).
	Batch int
	// Workers is the number of concurrent per-entry audits inside one
	// sweep (default 1).
	Workers int
	// MaxCells caps the cell partition (default 16).
	MaxCells int
	// MaxAuditDim and MaxAuditTuples bound the entries eligible for
	// exact cross-checks — the inclusion–exclusion oracle is 2^tuples
	// and cell integration multiplies by MaxCells, so audits stay in
	// the small-description regime where exact answers are feasible
	// (defaults 4 and 8).
	MaxAuditDim    int
	MaxAuditTuples int
	// WarnZ and FailZ are the tolerance-normalized z-score thresholds
	// of the ε-tolerance cell test (defaults 3 and 4). The ε allowance
	// itself comes from the audited sampler's own Params.Eps — a
	// correct generator that is merely ε-close must pass.
	WarnZ, FailZ float64
}

func (c AuditConfig) withDefaults() AuditConfig {
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 16
	}
	if c.MaxAuditDim <= 0 {
		c.MaxAuditDim = 4
	}
	if c.MaxAuditTuples <= 0 {
		c.MaxAuditTuples = 8
	}
	if c.WarnZ <= 0 {
		c.WarnZ = 3
	}
	if c.FailZ <= 0 {
		c.FailZ = 4
	}
	return c
}

// maxAuditables bounds the audit registry.
const maxAuditables = 1024

// auditable is one registered warm sampler: the derived quantifier-free
// relation (the symbolic oracle's input), the prepared geometry to
// re-draw from, and the memoized exact references.
type auditable struct {
	key string
	rel *constraint.Relation
	ps  *Prepared

	once      sync.Once
	exactErr  error
	cellProbs []float64
	shares    []float64
	vol       float64

	rounds atomic.Int64
}

// AuditStats summarizes the auditor's lifetime counters.
type AuditStats struct {
	// Enabled reports a running background loop.
	Enabled bool `json:"enabled"`
	// Entries is the number of registered auditable samplers.
	Entries int `json:"entries"`
	// Rounds counts completed per-entry audit rounds; Passes/Warns/
	// Fails count emitted events by outcome.
	Rounds int64 `json:"rounds"`
	Passes int64 `json:"passes"`
	Warns  int64 `json:"warns"`
	Fails  int64 `json:"fails"`
	// Flagged lists the cache keys of resident samplers currently
	// quarantined by a failing audit (flagged in reports and Explain —
	// never evicted for it). A sampler the plan cache evicts leaves the
	// list with the rest of its quality state.
	Flagged []string `json:"flagged,omitempty"`
}

// Auditor periodically re-draws small batches from warm cache entries
// and cross-checks empirical cell masses and canonical member shares
// against exact symbolic volumes. Verdicts are emitted as typed
// obs.AuditEvents and recorded on the quality tracker; failing entries
// are flagged, never evicted — quarantine is visible, not silent.
type Auditor struct {
	rt   *Runtime
	cfg  AuditConfig
	sink obs.AuditSink // may be nil

	mu      sync.Mutex
	entries map[string]*auditable

	rounds, passes, warns, fails atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	running   atomic.Bool
}

// newAuditor builds the auditor over rt. sink is the runtime's obs
// sink when it also implements obs.AuditSink.
func newAuditor(rt *Runtime, sink obs.Sink) *Auditor {
	a := &Auditor{
		rt:      rt,
		cfg:     AuditConfig{}.withDefaults(),
		entries: map[string]*auditable{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if as, ok := sink.(obs.AuditSink); ok {
		a.sink = as
	}
	return a
}

// Configure replaces the auditor's configuration. Call before Start.
func (a *Auditor) Configure(cfg AuditConfig) {
	a.mu.Lock()
	a.cfg = cfg.withDefaults()
	a.mu.Unlock()
}

// config returns a copy of the current configuration.
func (a *Auditor) config() AuditConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg
}

// register adds a warm sampler to the audit registry when it is in the
// auditable fragment: bounded description (the derived relation is
// always quantifier-free DNF — PR 5's symbolic fragment), small enough
// for the exact inclusion–exclusion oracle.
func (a *Auditor) register(key string, rel *constraint.Relation, ps *Prepared) {
	cfg := a.config()
	if rel.Arity() > cfg.MaxAuditDim || len(rel.Tuples) > cfg.MaxAuditTuples {
		return
	}
	if _, _, ok := ps.BoundingBox(); !ok {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.entries[key]; dup || len(a.entries) >= maxAuditables {
		return
	}
	a.entries[key] = &auditable{key: key, rel: rel, ps: ps}
}

// forget drops key's registration when it is still the one for ps: the
// plan cache evicted ps, and a rebuild of the same key that registered
// in the meantime must stay.
func (a *Auditor) forget(key string, ps *Prepared) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ent, ok := a.entries[key]; ok && ent.ps == ps {
		delete(a.entries, key)
	}
}

// Start launches the background sweep loop at the configured interval.
// A zero interval (or a second Start) is a no-op. The loop stops with
// the runtime's Close.
func (a *Auditor) Start() {
	cfg := a.config()
	if cfg.Interval <= 0 {
		return
	}
	a.startOnce.Do(func() {
		a.running.Store(true)
		go func() {
			defer close(a.done)
			ticker := time.NewTicker(cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-a.stop:
					return
				case <-ticker.C:
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						select {
						case <-a.stop:
							cancel()
						case <-ctx.Done():
						}
					}()
					_, _ = a.RunOnce(ctx)
					cancel()
				}
			}
		}()
	})
}

// Close stops the background loop and waits for an in-flight sweep.
func (a *Auditor) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	if a.running.Load() {
		<-a.done
		a.running.Store(false)
	}
}

// Stats returns the auditor's lifetime counters and the currently
// flagged keys.
func (a *Auditor) Stats() AuditStats {
	a.mu.Lock()
	entries := len(a.entries)
	a.mu.Unlock()
	return AuditStats{
		Enabled: a.running.Load(),
		Entries: entries,
		Rounds:  a.rounds.Load(),
		Passes:  a.passes.Load(),
		Warns:   a.warns.Load(),
		Fails:   a.fails.Load(),
		Flagged: a.rt.Quality().Flagged(),
	}
}

// RunOnce audits every registered warm entry once and returns the
// emitted events sorted by key. Entries leave the registry when the
// plan cache evicts them; one evicted while the sweep runs is skipped.
// Safe to call concurrently with the background loop — rounds are
// per-entry seeded, so verdicts stay deterministic per (key, round).
func (a *Auditor) RunOnce(ctx context.Context) ([]obs.AuditEvent, error) {
	a.mu.Lock()
	keys := make([]string, 0, len(a.entries))
	for k := range a.entries {
		keys = append(keys, k)
	}
	ents := make([]*auditable, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		ents = append(ents, a.entries[k])
	}
	a.mu.Unlock()

	cfg := a.config()
	events := make([][]obs.AuditEvent, len(ents))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, ent := range ents {
		if err := ctx.Err(); err != nil {
			return flatEvents(events), err
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, ent *auditable) {
			defer wg.Done()
			defer func() { <-sem }()
			events[i] = a.auditOne(ctx, ent, cfg)
		}(i, ent)
	}
	wg.Wait()
	return flatEvents(events), ctx.Err()
}

func flatEvents(evs [][]obs.AuditEvent) []obs.AuditEvent {
	var out []obs.AuditEvent
	for _, e := range evs {
		out = append(out, e...)
	}
	return out
}

// auditOne runs one audit round for a single registered entry: ensure
// the exact references, re-draw a batch with a deterministic per-round
// seed, run the ε-tolerance cell and share tests, emit and record the
// verdicts.
func (a *Auditor) auditOne(ctx context.Context, ent *auditable, cfg AuditConfig) []obs.AuditEvent {
	cached, negative := a.rt.cache.Peek(ent.key)
	if !cached || negative {
		return nil
	}
	qt := a.rt.Quality()
	lo, hi, ok := ent.ps.BoundingBox()
	if !ok {
		return nil
	}
	qt.Bind(ent.key, lo, hi, ent.ps.MemberVolumes())
	part := qt.Partition(ent.key)
	if part == nil {
		return nil
	}
	ent.once.Do(func() { a.computeExact(ctx, ent, part) })
	if ent.exactErr != nil {
		return nil
	}
	if !qt.HasExact(ent.key) {
		qt.SetExact(ent.key, ent.cellProbs, ent.shares, ent.vol)
	}

	round := ent.rounds.Add(1)
	seed := PrepSeedFor(ent.key+"\x1faudit") + uint64(round)
	o, err := ent.ps.NewObservableCtx(ctx, seed)
	if err != nil {
		return nil
	}
	counts := make([]int64, part.Cells())
	memberDraws := make([]int64, len(ent.shares))
	pts := make([]linalg.Vector, 0, cfg.Batch)
	for i := 0; i < cfg.Batch; i++ {
		if ctx.Err() != nil {
			return nil
		}
		x, err := o.Sample()
		if err != nil {
			continue
		}
		counts[part.CellOf(x)]++
		if j := ent.rel.CanonicalIndex(x); j >= 0 && j < len(memberDraws) {
			memberDraws[j]++
		}
		pts = append(pts, x)
	}
	if len(pts) == 0 {
		return nil
	}

	p := ent.ps.Options().Params
	if p.Eps <= 0 {
		p = core.DefaultParams()
	}
	evs := []obs.AuditEvent{
		a.verdict(ent.key, "cells", quality.CellTest(counts, ent.cellProbs, p.Eps), cfg),
		a.verdict(ent.key, "shares", quality.CellTest(memberDraws, ent.shares, p.Eps), cfg),
	}
	qt.RecordAudit(ent.key, evs)
	// Feed the audit draws into the streaming accumulators too: they
	// are real draws from the warm sampler, so audits of otherwise idle
	// entries still advance the cell counts and the drift window.
	qt.ObserveDraw(ent.key, pts, quality.Effort{MemberDraws: memberDraws, Accepts: int64(len(pts))})
	for _, ev := range evs {
		a.count(ev)
		if a.sink != nil {
			a.sink.AuditEvent(ev)
		}
	}
	a.rounds.Add(1)
	return evs
}

// verdict maps a cell-test result onto a typed audit event.
func (a *Auditor) verdict(key, check string, v quality.CellVerdict, cfg AuditConfig) obs.AuditEvent {
	out := obs.AuditPass
	switch {
	case v.Worst > cfg.FailZ:
		out = obs.AuditFail
	case v.Worst > cfg.WarnZ:
		out = obs.AuditWarn
	}
	ev := obs.AuditEvent{
		Key:       key,
		Check:     check,
		Outcome:   out,
		Stat:      v.Worst,
		Threshold: cfg.FailZ,
		Samples:   int(v.Samples),
	}
	if v.Cell >= 0 {
		ev.Detail = fmt.Sprintf("worst %s index %d", checkNoun(check), v.Cell)
	}
	return ev
}

func checkNoun(check string) string {
	if check == "shares" {
		return "member"
	}
	return "cell"
}

func (a *Auditor) count(ev obs.AuditEvent) {
	switch ev.Outcome {
	case obs.AuditFail:
		a.fails.Add(1)
	case obs.AuditWarn:
		a.warns.Add(1)
	default:
		a.passes.Add(1)
	}
}

// computeExact derives the exact references for one entry from the
// symbolic oracle: total inclusion–exclusion volume, canonical member
// shares (cumulative prefix volumes V_i − V_{i−1} — the mass member i
// contributes canonically, which for overlapping members is NOT its
// plain volume share), and per-cell masses by integrating the relation
// restricted to each partition cell.
func (a *Auditor) computeExact(ctx context.Context, ent *auditable, part *quality.Partition) {
	interrupt := func() error { return ctx.Err() }
	vol, err := polytope.RelationVolumeInterruptible(ent.rel, interrupt)
	if err != nil {
		ent.exactErr = err
		return
	}
	if vol <= 0 {
		ent.exactErr = fmt.Errorf("runtime: audit oracle: zero exact volume for %q", ent.key)
		return
	}
	ent.vol = vol

	m := len(ent.rel.Tuples)
	ent.shares = make([]float64, m)
	prev := 0.0
	for i := 1; i <= m; i++ {
		var vi float64
		if i == m {
			vi = vol
		} else {
			prefix, err := constraint.NewRelation(ent.rel.Name, ent.rel.Vars, ent.rel.Tuples[:i]...)
			if err != nil {
				ent.exactErr = err
				return
			}
			vi, err = polytope.RelationVolumeInterruptible(prefix, interrupt)
			if err != nil {
				ent.exactErr = err
				return
			}
		}
		ent.shares[i-1] = (vi - prev) / vol
		if ent.shares[i-1] < 0 {
			ent.shares[i-1] = 0
		}
		prev = vi
	}

	ent.cellProbs = make([]float64, part.Cells())
	for c := 0; c < part.Cells(); c++ {
		lo, hi := part.CellBounds(c)
		restricted, err := restrictToBox(ent.rel, lo, hi)
		if err != nil {
			ent.exactErr = err
			return
		}
		cv, err := polytope.RelationVolumeInterruptible(restricted, interrupt)
		if err != nil {
			ent.exactErr = err
			return
		}
		ent.cellProbs[c] = cv / vol
	}
}

// restrictToBox conjoins the box [lo, hi] onto every tuple of rel.
func restrictToBox(rel *constraint.Relation, lo, hi linalg.Vector) (*constraint.Relation, error) {
	d := rel.Arity()
	tuples := make([]constraint.Tuple, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		atoms := make([]constraint.Atom, 0, len(t.Atoms)+2*d)
		atoms = append(atoms, t.Atoms...)
		for i := 0; i < d; i++ {
			up := make(linalg.Vector, d)
			up[i] = 1
			atoms = append(atoms, constraint.NewAtom(up, hi[i], false))
			down := make(linalg.Vector, d)
			down[i] = -1
			atoms = append(atoms, constraint.NewAtom(down, -lo[i], false))
		}
		tuples = append(tuples, constraint.NewTuple(d, atoms...))
	}
	return constraint.NewRelation(rel.Name, rel.Vars, tuples...)
}
