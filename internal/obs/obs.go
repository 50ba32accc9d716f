// Package obs is the observability layer threaded through every stage
// of the sampling pipeline: plan canonicalization, sampler preparation
// (rounding + volume), per-seed binds, walk epochs, batch execution,
// cache lookups and symbolic (Fourier–Motzkin) evaluation.
//
// It provides three small, allocation-conscious mechanisms:
//
//   - Span: a timed stage of one request, carrying counters and child
//     stages, propagated via context.Context. Every method is nil-safe,
//     so code paths instrument unconditionally and pay (almost) nothing
//     when no trace is active — one context lookup per stage, zero per
//     walk step.
//   - Sink: the event interface the runtime reports cache/pool events
//     through, with per-cache-kind attribution (plan / symbolic /
//     alibi) and hit/negative-hit/miss/eviction outcomes.
//   - Costs: a bounded concurrent table of observed per-key costs —
//     preparation time, per-sample time, walk steps, LP membership
//     calls, rejection rounds, elimination rounds and atom growth —
//     keyed by the same canonical keys every cache uses. This is the
//     measured input a cost-based planner routes sub-plans by (the
//     regime flip of the paper: exact elimination wins at small
//     description sizes and loses doubly-exponentially as eliminated
//     variables grow — a cliff that must be observed, not assumed).
//
// The package depends only on the standard library, so every layer
// (walk, core, runtime, server, the cdb facade) can import it.
package obs

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// CacheKind labels which prepared cache an event belongs to.
type CacheKind uint8

const (
	// KindPlan is the prepared-sampler cache (canonical sampling plans,
	// time slices and windows).
	KindPlan CacheKind = iota
	// KindSymbolic is the prepared-symbolic cache (eliminated DNF
	// relations and their exact volumes).
	KindSymbolic
	// KindAlibi is the prepared-alibi cache (meet regions, meeting-time
	// intervals and their volume observables).
	KindAlibi
)

// String returns the metric label of the kind.
func (k CacheKind) String() string {
	switch k {
	case KindSymbolic:
		return "symbolic"
	case KindAlibi:
		return "alibi"
	default:
		return "plan"
	}
}

// CacheOutcome is what happened on one cache access (or maintenance
// pass).
type CacheOutcome uint8

const (
	// Hit is a warm positive entry (including joins of an in-flight
	// build).
	Hit CacheOutcome = iota
	// NegativeHit is a replayed cached verdict (empty target,
	// projection-needing plan, out-of-support slice).
	NegativeHit
	// Miss is a cold build.
	Miss
	// Eviction is an LRU eviction.
	Eviction
)

// String returns the metric label of the outcome.
func (o CacheOutcome) String() string {
	switch o {
	case NegativeHit:
		return "negative_hit"
	case Miss:
		return "miss"
	case Eviction:
		return "eviction"
	default:
		return "hit"
	}
}

// Sink receives runtime events; a serving layer maps them onto its
// metrics. All methods must be safe for concurrent use. A nil Sink is
// valid and drops every event. Cache events carry the cache kind and
// distinguish negative hits, so a metrics layer can report per-kind hit
// rates and negative-entry traffic without guessing.
type Sink interface {
	// CacheEvent records one cache access outcome for the given kind.
	CacheEvent(kind CacheKind, outcome CacheOutcome)
	// CoalescedDraw records a batched draw served by an identical
	// in-flight draw.
	CoalescedDraw()
	// BatchJob records one worker-pool job execution.
	BatchJob()
}

// AuditOutcome is the verdict of one statistical audit check.
type AuditOutcome uint8

const (
	// AuditPass means the empirical statistic stayed inside the warn
	// threshold.
	AuditPass AuditOutcome = iota
	// AuditWarn means the statistic exceeded the warn threshold but not
	// the fail threshold — worth watching, not yet quarantined.
	AuditWarn
	// AuditFail means the statistic exceeded the fail threshold: the
	// cached sampler's output is inconsistent with the exact geometry.
	AuditFail
)

// String returns the metric label of the outcome.
func (o AuditOutcome) String() string {
	switch o {
	case AuditWarn:
		return "warn"
	case AuditFail:
		return "fail"
	default:
		return "pass"
	}
}

// MarshalJSON renders the label ("pass"/"warn"/"fail"), not the raw
// enum value — audit events are a JSON API surface (/v1/audit).
func (o AuditOutcome) MarshalJSON() ([]byte, error) {
	return []byte(`"` + o.String() + `"`), nil
}

// UnmarshalJSON accepts the labels MarshalJSON produces.
func (o *AuditOutcome) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"pass"`:
		*o = AuditPass
	case `"warn"`:
		*o = AuditWarn
	case `"fail"`:
		*o = AuditFail
	default:
		return fmt.Errorf("obs: unknown audit outcome %s", b)
	}
	return nil
}

// AuditEvent is one statistical check of a warm cached sampler against
// its exact (symbolic) geometry: the background auditor re-draws a
// small batch and compares empirical cell masses and per-disjunct draw
// shares against exact volumes. Stat is the check's normalized test
// statistic (worst per-cell z-score for "cells"/"shares"), Threshold
// the fail bound it is compared to.
type AuditEvent struct {
	// Key is the prepared-sampler cache key that was audited.
	Key string `json:"key"`
	// Check names the statistical test: "cells" (chi-square cell masses
	// vs exact volumes), "shares" (per-disjunct canonical draw shares vs
	// exact inclusion–exclusion volumes) or "mixing" (walk diagnostics).
	Check string `json:"check"`
	// Outcome is the verdict.
	Outcome AuditOutcome `json:"outcome"`
	// Stat is the observed test statistic, Threshold the fail bound.
	Stat      float64 `json:"stat"`
	Threshold float64 `json:"threshold"`
	// Samples is the number of audit draws behind the statistic.
	Samples int `json:"samples"`
	// Detail localizes the worst deviation (cell index, member index).
	Detail string `json:"detail,omitempty"`
}

// AuditSink receives audit events. Sink implementors may additionally
// implement AuditSink to observe the background auditor; the runtime
// type-asserts, so existing Sink implementations keep working
// unchanged. AuditEvent must be safe for concurrent use.
type AuditSink interface {
	AuditEvent(ev AuditEvent)
}

// NopSink is the no-op Sink: embed it to implement only the events a
// layer cares about.
type NopSink struct{}

// CacheEvent drops the event.
func (NopSink) CacheEvent(CacheKind, CacheOutcome) {}

// CoalescedDraw drops the event.
func (NopSink) CoalescedDraw() {}

// BatchJob drops the event.
func (NopSink) BatchJob() {}

var _ Sink = NopSink{}

// Trace IDs: unique per process run, cheap to mint (one atomic add and
// one short FNV hash), stable in width (16 hex digits) so log lines
// align. The base folds in the process start time and pid, so IDs from
// different runs do not collide in aggregated logs.
var (
	traceSeq  atomic.Uint64
	traceBase = func() uint64 {
		h := fnv.New64a()
		h.Write([]byte(time.Now().Format(time.RFC3339Nano)))
		h.Write([]byte{0x1f})
		h.Write([]byte(strconv.Itoa(os.Getpid())))
		return h.Sum64()
	}()
)

// NewTraceID mints a process-unique 16-hex-digit trace identifier.
func NewTraceID() string {
	h := fnv.New64a()
	var buf [16]byte
	putUint64(buf[:8], traceBase)
	putUint64(buf[8:], traceSeq.Add(1))
	h.Write(buf[:])
	const hexdigits = "0123456789abcdef"
	v := h.Sum64()
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(out[:])
}

// putUint64 is binary.BigEndian.PutUint64 without the import.
func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
