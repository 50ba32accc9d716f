package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Cost accumulates observed effort for one canonical key (a prepared
// plan, one of its disjuncts, a symbolic elimination or an alibi
// build). All fields are atomics: samplers on several workers update
// one Cost concurrently. Use Snapshot for a consistent-enough plain
// copy.
type Cost struct {
	// Preparation: rounding + volume passes behind a cache miss.
	Preps     atomic.Int64
	PrepNanos atomic.Int64

	// Batched draws: one Draws per executed (non-coalesced) draw,
	// Samples points produced, SampleNanos wall time of the draw,
	// QueueNanos cumulative pool queue wait, BindNanos per-seed binds.
	Draws       atomic.Int64
	Samples     atomic.Int64
	SampleNanos atomic.Int64
	QueueNanos  atomic.Int64
	Binds       atomic.Int64
	BindNanos   atomic.Int64
	Coalesced   atomic.Int64

	// Walk effort, aggregated across workers and draws.
	WalkSteps      atomic.Int64
	WalkAccepted   atomic.Int64
	OracleCalls    atomic.Int64
	InterruptPolls atomic.Int64

	// Rejection effort (union canonical-index rounds, intersection /
	// difference / projection trials).
	Rounds  atomic.Int64
	Accepts atomic.Int64

	// Symbolic (Fourier–Motzkin) effort: symbolic evaluations under
	// symbolic keys, and the elimination that serves an ∃ plan warm
	// under its plan key.
	Evals      atomic.Int64
	ElimNanos  atomic.Int64
	ElimRounds atomic.Int64
	ElimVars   atomic.Int64
	AtomsIn    atomic.Int64
	AtomsOut   atomic.Int64

	// (ε, δ) budget ledger for volume estimation: per estimate, the
	// requested and achieved half-width ε and confidence δ are summed in
	// micro-units (1e-6), so requested/achieved averages are
	// sum/VolEstimates/1e6. Achieved can be worse than requested when
	// the per-phase Chernoff sample count hits its cap (VolCapped counts
	// those estimates) — exactly the silent accuracy loss this ledger
	// exists to make visible.
	VolEstimates       atomic.Int64
	VolEpsRequestedMu  atomic.Int64
	VolEpsAchievedMu   atomic.Int64
	VolDeltaRequestMu  atomic.Int64
	VolDeltaAchievedMu atomic.Int64
	VolCapped          atomic.Int64
}

// CostSnapshot is a plain copy of a Cost, suitable for reports and
// JSON.
type CostSnapshot struct {
	Key string `json:"key,omitempty"`

	Preps     int64 `json:"preps,omitempty"`
	PrepNanos int64 `json:"prep_nanos,omitempty"`

	Draws       int64 `json:"draws,omitempty"`
	Samples     int64 `json:"samples,omitempty"`
	SampleNanos int64 `json:"sample_nanos,omitempty"`
	QueueNanos  int64 `json:"queue_nanos,omitempty"`
	Binds       int64 `json:"binds,omitempty"`
	BindNanos   int64 `json:"bind_nanos,omitempty"`
	Coalesced   int64 `json:"coalesced,omitempty"`

	WalkSteps      int64 `json:"walk_steps,omitempty"`
	WalkAccepted   int64 `json:"walk_accepted,omitempty"`
	OracleCalls    int64 `json:"oracle_calls,omitempty"`
	InterruptPolls int64 `json:"interrupt_polls,omitempty"`

	Rounds  int64 `json:"rounds,omitempty"`
	Accepts int64 `json:"accepts,omitempty"`

	Evals      int64 `json:"evals,omitempty"`
	ElimNanos  int64 `json:"elim_nanos,omitempty"`
	ElimRounds int64 `json:"elim_rounds,omitempty"`
	ElimVars   int64 `json:"elim_vars,omitempty"`
	AtomsIn    int64 `json:"atoms_in,omitempty"`
	AtomsOut   int64 `json:"atoms_out,omitempty"`

	VolEstimates       int64 `json:"vol_estimates,omitempty"`
	VolEpsRequestedMu  int64 `json:"vol_eps_requested_micro,omitempty"`
	VolEpsAchievedMu   int64 `json:"vol_eps_achieved_micro,omitempty"`
	VolDeltaRequestMu  int64 `json:"vol_delta_requested_micro,omitempty"`
	VolDeltaAchievedMu int64 `json:"vol_delta_achieved_micro,omitempty"`
	VolCapped          int64 `json:"vol_capped,omitempty"`
}

// IsZero reports whether nothing has been observed.
func (c CostSnapshot) IsZero() bool {
	z := c
	z.Key = ""
	return z == CostSnapshot{}
}

// Snapshot copies the atomics into a CostSnapshot.
func (c *Cost) Snapshot() CostSnapshot {
	if c == nil {
		return CostSnapshot{}
	}
	return CostSnapshot{
		Preps:          c.Preps.Load(),
		PrepNanos:      c.PrepNanos.Load(),
		Draws:          c.Draws.Load(),
		Samples:        c.Samples.Load(),
		SampleNanos:    c.SampleNanos.Load(),
		QueueNanos:     c.QueueNanos.Load(),
		Binds:          c.Binds.Load(),
		BindNanos:      c.BindNanos.Load(),
		Coalesced:      c.Coalesced.Load(),
		WalkSteps:      c.WalkSteps.Load(),
		WalkAccepted:   c.WalkAccepted.Load(),
		OracleCalls:    c.OracleCalls.Load(),
		InterruptPolls: c.InterruptPolls.Load(),
		Rounds:         c.Rounds.Load(),
		Accepts:        c.Accepts.Load(),
		Evals:          c.Evals.Load(),
		ElimNanos:      c.ElimNanos.Load(),
		ElimRounds:     c.ElimRounds.Load(),
		ElimVars:       c.ElimVars.Load(),
		AtomsIn:        c.AtomsIn.Load(),
		AtomsOut:       c.AtomsOut.Load(),

		VolEstimates:       c.VolEstimates.Load(),
		VolEpsRequestedMu:  c.VolEpsRequestedMu.Load(),
		VolEpsAchievedMu:   c.VolEpsAchievedMu.Load(),
		VolDeltaRequestMu:  c.VolDeltaRequestMu.Load(),
		VolDeltaAchievedMu: c.VolDeltaAchievedMu.Load(),
		VolCapped:          c.VolCapped.Load(),
	}
}

// Micro converts a unitless quantity (an ε or δ) to the ledger's
// micro-unit fixed point, saturating rather than overflowing.
func Micro(v float64) int64 {
	switch {
	case v != v || v > 9e12: // NaN or absurd
		return 9e18
	case v < 0:
		return 0
	default:
		return int64(v*1e6 + 0.5)
	}
}

// RecordVolume adds one volume estimate to the cell's (ε, δ) ledger.
func (c *Cost) RecordVolume(epsReq, epsAch, deltaReq, deltaAch float64, capped bool) {
	c.VolEstimates.Add(1)
	c.VolEpsRequestedMu.Add(Micro(epsReq))
	c.VolEpsAchievedMu.Add(Micro(epsAch))
	c.VolDeltaRequestMu.Add(Micro(deltaReq))
	c.VolDeltaAchievedMu.Add(Micro(deltaAch))
	if capped {
		c.VolCapped.Add(1)
	}
}

// overflowKey aggregates observations once the table is full, so a key
// churn cannot grow the table without bound while totals stay honest.
const overflowKey = "<overflow>"

// Costs is a bounded concurrent table of per-key observed costs. Keys
// are the canonical cache keys (plan, per-disjunct "key#i", symbolic,
// alibi). The runtime calls Forget when a key's cache entry is evicted,
// so the table holds resident keys; the capacity is a backstop for
// observations recorded after their entry left. Once capacity distinct
// keys exist, further keys share one overflow entry.
type Costs struct {
	mu  sync.RWMutex
	cap int
	m   map[string]*Cost
}

// NewCosts creates a table bounded to capacity distinct keys
// (minimum 1).
func NewCosts(capacity int) *Costs {
	if capacity < 1 {
		capacity = 1
	}
	return &Costs{cap: capacity, m: make(map[string]*Cost)}
}

// For returns the Cost cell for key, creating it if the table has
// room; at capacity it returns the shared overflow cell. A nil table
// returns a throwaway cell so callers never branch.
func (t *Costs) For(key string) *Cost {
	if t == nil {
		return &Cost{}
	}
	t.mu.RLock()
	c := t.m[key]
	t.mu.RUnlock()
	if c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.m[key]; c != nil {
		return c
	}
	if len(t.m) >= t.cap {
		if c = t.m[overflowKey]; c == nil {
			c = &Cost{}
			t.m[overflowKey] = c
		}
		return c
	}
	c = &Cost{}
	t.m[key] = c
	return c
}

// Forget drops the cells of key and of its per-disjunct "key#i" keys.
func (t *Costs) Forget(key string) {
	if t == nil {
		return
	}
	prefix := key + "#"
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, key)
	for k := range t.m {
		if i, ok := strings.CutPrefix(k, prefix); ok && isIndex(i) {
			delete(t.m, k)
		}
	}
}

// isIndex reports whether s is a non-empty run of decimal digits.
func isIndex(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return s != ""
}

// Snapshot returns the observed cost for key; ok is false when nothing
// has been recorded under it.
func (t *Costs) Snapshot(key string) (CostSnapshot, bool) {
	if t == nil {
		return CostSnapshot{}, false
	}
	t.mu.RLock()
	c := t.m[key]
	t.mu.RUnlock()
	if c == nil {
		return CostSnapshot{}, false
	}
	s := c.Snapshot()
	s.Key = key
	return s, true
}

// Each returns snapshots of every key with recorded cost, sorted by
// key — the debug-endpoint dump.
func (t *Costs) Each() []CostSnapshot {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	out := make([]CostSnapshot, 0, len(t.m))
	for key, c := range t.m {
		s := c.Snapshot()
		s.Key = key
		out = append(out, s)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of distinct keys tracked.
func (t *Costs) Len() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}
