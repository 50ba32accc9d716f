package quality

import (
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// RoundsHistBuckets is the number of buckets in the rejection-round
// histogram: bucket i counts accepted samples that needed
// 2^i … 2^(i+1)−1 canonical-index rounds (the last bucket is open).
const RoundsHistBuckets = 8

// RoundsBucket returns the histogram bucket of a rounds-per-sample
// count.
func RoundsBucket(rounds int64) int {
	b := 0
	for rounds > 1 && b < RoundsHistBuckets-1 {
		rounds >>= 1
		b++
	}
	return b
}

// Effort is the per-draw effort attached to an observation — a plain
// superset of core.SampleStats so quality does not import core.
type Effort struct {
	WalkSteps      int64
	WalkAccepted   int64
	OracleCalls    int64
	InterruptPolls int64
	Rounds         int64
	Accepts        int64
	// RoundsHist is the rejection-round distribution (see RoundsBucket).
	RoundsHist [RoundsHistBuckets]int64
	// MemberDraws counts accepted draws per canonical union member.
	MemberDraws []int64
}

// refFreeze is the sample count at which the drift reference window is
// frozen: later draws are compared against this early snapshot by a
// two-sample chi-square, so mixture drift shows up without any exact
// oracle.
const refFreeze = 2048

// maxTrackedKeys bounds the tracker; keys beyond the cap are dropped
// (observability must never become the memory leak it watches for).
const maxTrackedKeys = 512

// entry is the per-sampler accumulator state.
type entry struct {
	mu sync.Mutex

	part       *Partition
	memberVols []float64

	counts    []int64 // per-cell draw counts (total)
	refCounts []int64 // frozen reference window (nil until frozen)
	samples   int64

	memberDraws []int64
	eff         Effort
	ess         ESSAccumulator

	// Exact data, installed by the auditor.
	exactCellProbs []float64
	exactShares    []float64
	exactVol       float64

	// Audit status, installed by the auditor. Flagged is sticky while
	// failing and cleared by a later pass — quarantine, never silently.
	audited      bool
	auditRounds  int64
	auditOutcome obs.AuditOutcome
	lastEvents   []obs.AuditEvent
	flagged      bool
}

// Tracker accumulates per-prepared-sampler quality diagnostics, keyed
// by the same cache keys the runtime uses. Safe for concurrent use. A
// nil Tracker drops everything.
type Tracker struct {
	mu       sync.RWMutex
	maxCells int
	m        map[string]*entry
}

// NewTracker builds a tracker whose cell partitions have at most
// maxCells cells (default 16).
func NewTracker(maxCells int) *Tracker {
	if maxCells <= 0 {
		maxCells = 16
	}
	return &Tracker{maxCells: maxCells, m: make(map[string]*entry)}
}

// lookup returns the entry for key, or nil.
func (t *Tracker) lookup(key string) *entry {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	e := t.m[key]
	t.mu.RUnlock()
	return e
}

// Bind registers (or refreshes) the sampler geometry under key: the
// bounding box that seeds the deterministic cell partition and the
// per-member volume estimates. Repeat binds of a warm sampler are
// cheap no-ops.
func (t *Tracker) Bind(key string, lo, hi linalg.Vector, memberVols []float64) {
	if t == nil || len(lo) == 0 {
		return
	}
	if e := t.lookup(key); e != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[key] != nil || len(t.m) >= maxTrackedKeys {
		return
	}
	part := NewPartition(lo, hi, t.maxCells)
	e := &entry{
		part:        part,
		memberVols:  append([]float64(nil), memberVols...),
		counts:      make([]int64, part.Cells()),
		memberDraws: make([]int64, len(memberVols)),
	}
	t.m[key] = e
}

// Forget drops key and everything accumulated under it: the sampler it
// tracked has left the cache. A later Bind starts the key afresh.
func (t *Tracker) Forget(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
}

// ObserveDraw folds one executed batch of draws into the accumulator:
// cell counts, member draw shares, walk effort and the ESS stream. A
// key that was never Bind-ed is ignored.
func (t *Tracker) ObserveDraw(key string, pts []linalg.Vector, eff Effort) {
	e := t.lookup(key)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, x := range pts {
		if len(x) != e.part.Dim() {
			continue
		}
		e.counts[e.part.CellOf(x)]++
		e.samples++
		var s float64
		for _, v := range x {
			s += v
		}
		e.ess.Observe(s)
	}
	if e.refCounts == nil && e.samples >= refFreeze {
		e.refCounts = append([]int64(nil), e.counts...)
	}
	e.eff.WalkSteps += eff.WalkSteps
	e.eff.WalkAccepted += eff.WalkAccepted
	e.eff.OracleCalls += eff.OracleCalls
	e.eff.InterruptPolls += eff.InterruptPolls
	e.eff.Rounds += eff.Rounds
	e.eff.Accepts += eff.Accepts
	for i, v := range eff.RoundsHist {
		e.eff.RoundsHist[i] += v
	}
	for i, v := range eff.MemberDraws {
		if i < len(e.memberDraws) {
			e.memberDraws[i] += v
		}
	}
}

// SetExact installs exact (symbolically computed) references for key:
// per-cell masses of the partition, per-member canonical shares
// (cumulative inclusion–exclusion volume differences) and the exact
// total volume. Installed once by the first audit and reused.
func (t *Tracker) SetExact(key string, cellProbs, shares []float64, vol float64) {
	e := t.lookup(key)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.exactCellProbs = append([]float64(nil), cellProbs...)
	e.exactShares = append([]float64(nil), shares...)
	e.exactVol = vol
}

// HasExact reports whether exact references are already installed.
func (t *Tracker) HasExact(key string) bool {
	e := t.lookup(key)
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.exactCellProbs != nil
}

// Partition returns the cell partition bound under key (nil when
// unknown) — the auditor integrates exact masses over its cells.
func (t *Tracker) Partition(key string) *Partition {
	e := t.lookup(key)
	if e == nil {
		return nil
	}
	return e.part
}

// MemberVolumes returns the per-member volume estimates bound under
// key.
func (t *Tracker) MemberVolumes(key string) []float64 {
	e := t.lookup(key)
	if e == nil {
		return nil
	}
	return append([]float64(nil), e.memberVols...)
}

// RecordAudit installs the outcome of one audit round: the events, the
// worst outcome, and the flag. Fail flags; pass clears — a failing
// entry is quarantined visibly, never silently, and never evicted.
func (t *Tracker) RecordAudit(key string, events []obs.AuditEvent) {
	e := t.lookup(key)
	if e == nil {
		return
	}
	worst := obs.AuditPass
	for _, ev := range events {
		if ev.Outcome > worst {
			worst = ev.Outcome
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.audited = true
	e.auditRounds++
	e.auditOutcome = worst
	e.lastEvents = append([]obs.AuditEvent(nil), events...)
	switch worst {
	case obs.AuditFail:
		e.flagged = true
	case obs.AuditPass:
		e.flagged = false
	}
}

// Flagged returns the tracked keys currently quarantined by a failing
// audit, sorted. The runtime forgets a key when its sampler is evicted,
// so these are resident samplers.
func (t *Tracker) Flagged() []string {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	keys := make([]string, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	t.mu.RUnlock()
	var out []string
	for _, k := range keys {
		e := t.lookup(k)
		if e == nil {
			continue // forgotten since the snapshot
		}
		e.mu.Lock()
		f := e.flagged
		e.mu.Unlock()
		if f {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Keys returns all tracked keys, sorted.
func (t *Tracker) Keys() []string {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	keys := make([]string, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	t.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Report is a point-in-time quality report for one prepared sampler.
type Report struct {
	Key     string `json:"key"`
	Samples int64  `json:"samples"`
	Cells   int    `json:"cells"`

	// Uniformity: one-sample chi-square against exact cell masses (only
	// when an audit installed them) and the reference-window drift test
	// (available after refFreeze samples with no oracle at all).
	CellCounts     []int64   `json:"cell_counts,omitempty"`
	ExactCellProbs []float64 `json:"exact_cell_probs,omitempty"`
	ChiSquare      float64   `json:"chi_square,omitempty"`
	ChiSquareDOF   int       `json:"chi_square_dof,omitempty"`
	PValue         float64   `json:"p_value,omitempty"`
	DriftStat      float64   `json:"drift_stat,omitempty"`
	DriftPValue    float64   `json:"drift_p_value,omitempty"`

	// Mixture: observed canonical-member draw shares vs the exact
	// shares (cumulative inclusion–exclusion volume differences).
	MemberDraws  []int64   `json:"member_draws,omitempty"`
	MemberShares []float64 `json:"member_shares,omitempty"`
	ExactShares  []float64 `json:"exact_shares,omitempty"`

	// Mixing: walk acceptance, rejection rounds, autocorrelation.
	AcceptanceRate  float64 `json:"acceptance_rate,omitempty"`
	RoundsPerSample float64 `json:"rounds_per_sample,omitempty"`
	RoundsHist      []int64 `json:"rounds_hist,omitempty"`
	ESS             float64 `json:"ess,omitempty"`
	ESSWindow       int     `json:"ess_window,omitempty"`
	Autocorr1       float64 `json:"autocorr_lag1,omitempty"`

	// Audit status.
	Audited      bool             `json:"audited,omitempty"`
	AuditRounds  int64            `json:"audit_rounds,omitempty"`
	AuditOutcome string           `json:"audit_outcome,omitempty"`
	LastEvents   []obs.AuditEvent `json:"last_events,omitempty"`
	Flagged      bool             `json:"flagged,omitempty"`
	ExactVolume  float64          `json:"exact_volume,omitempty"`
}

// Report assembles the current quality report for key.
func (t *Tracker) Report(key string) (Report, bool) {
	e := t.lookup(key)
	if e == nil {
		return Report{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := Report{
		Key:        key,
		Samples:    e.samples,
		Cells:      e.part.Cells(),
		CellCounts: append([]int64(nil), e.counts...),
	}
	if e.exactCellProbs != nil {
		r.ExactCellProbs = append([]float64(nil), e.exactCellProbs...)
		r.ChiSquare, r.ChiSquareDOF = ChiSquare(e.counts, e.exactCellProbs)
		r.PValue = ChiSquarePValue(r.ChiSquare, r.ChiSquareDOF)
	}
	if e.refCounts != nil {
		cur := make([]int64, len(e.counts))
		for i := range cur {
			cur[i] = e.counts[i] - e.refCounts[i]
		}
		var stat float64
		var dof int
		stat, dof = ChiSquareTwoSample(e.refCounts, cur)
		r.DriftStat = stat
		r.DriftPValue = ChiSquarePValue(stat, dof)
	}
	r.MemberDraws = append([]int64(nil), e.memberDraws...)
	var md int64
	for _, v := range e.memberDraws {
		md += v
	}
	if md > 0 {
		r.MemberShares = make([]float64, len(e.memberDraws))
		for i, v := range e.memberDraws {
			r.MemberShares[i] = float64(v) / float64(md)
		}
	}
	if e.exactShares != nil {
		r.ExactShares = append([]float64(nil), e.exactShares...)
	}
	if e.eff.WalkSteps > 0 {
		r.AcceptanceRate = float64(e.eff.WalkAccepted) / float64(e.eff.WalkSteps)
	}
	if e.eff.Accepts > 0 {
		r.RoundsPerSample = float64(e.eff.Rounds) / float64(e.eff.Accepts)
	}
	var histTotal int64
	for _, v := range e.eff.RoundsHist {
		histTotal += v
	}
	if histTotal > 0 {
		r.RoundsHist = append([]int64(nil), e.eff.RoundsHist[:]...)
	}
	if w := e.ess.fill; w >= 4 {
		r.ESS = e.ess.ESS()
		r.ESSWindow = w
		r.Autocorr1 = e.ess.Autocorrelation(1)
	}
	r.Audited = e.audited
	r.AuditRounds = e.auditRounds
	if e.audited {
		r.AuditOutcome = e.auditOutcome.String()
	}
	r.LastEvents = append([]obs.AuditEvent(nil), e.lastEvents...)
	r.Flagged = e.flagged
	r.ExactVolume = e.exactVol
	return r, true
}

// Reports returns reports for every tracked key, sorted by key.
func (t *Tracker) Reports() []Report {
	keys := t.Keys()
	out := make([]Report, 0, len(keys))
	for _, k := range keys {
		if r, ok := t.Report(k); ok {
			out = append(out, r)
		}
	}
	return out
}
