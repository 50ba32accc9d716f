package runtime

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/obs"
)

// errBuildPanic is what waiters of a flight see when the build panicked
// out of Get (the panic itself propagates on the builder's goroutine).
var errBuildPanic = errors.New("runtime: prepared build panicked")

// negativeEntry wraps a build error that is worth caching: the build
// deterministically proved its target empty (or otherwise permanently
// unusable), so replays should be O(1) lookups instead of repeated
// failed builds. The wrapped error stays visible to errors.Is/As.
type negativeEntry struct{ err error }

func (n negativeEntry) Error() string { return n.err.Error() }
func (n negativeEntry) Unwrap() error { return n.err }

// Negative marks err as cacheable: a build returning Negative(err) is
// stored as a negative entry and every later Get for the key returns
// the error immediately (hit=true), until the entry is evicted.
// Transient failures must NOT be marked — a plain error is never cached
// and the next Get retries the build.
func Negative(err error) error { return negativeEntry{err: err} }

// IsNegative reports whether err carries the Negative marker.
func IsNegative(err error) bool {
	var n negativeEntry
	return errors.As(err, &n)
}

// Cache is a singleflight LRU: values are built at most once per key no
// matter how many goroutines ask concurrently — all waiters of a flight
// receive the one shared value — and completed entries are evicted
// least-recently-used beyond the capacity. Failed builds are not cached
// (the error propagates to every waiter and the next Get retries)
// unless the build marks the error with Negative, in which case the
// verdict itself is cached.
//
// This is the mechanism that makes a thundering herd of identical
// requests cost one rounding pass instead of a hundred; SamplerCache is
// its prepared-sampler instantiation.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheSlot[V]
	slots    map[string]*cacheSlot[V]

	// kind labels this cache's events (plan / symbolic / alibi) for the
	// sink; sink receives per-access outcomes and may be nil.
	kind obs.CacheKind
	sink obs.Sink

	// onEvict, when set, hears every evicted entry after c.mu is
	// released, so state kept beside the cache leaves with its entry.
	onEvict func(key string, val V)
}

type cacheSlot[V any] struct {
	key      string
	elem     *list.Element
	ready    chan struct{} // closed when build finishes
	val      V
	err      error
	negative bool
}

// NewKindCache returns a cache holding at most capacity completed
// entries (minimum 1) whose events carry the given kind label. sink may
// be nil.
func NewKindCache[V any](capacity int, kind obs.CacheKind, sink obs.Sink) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		slots:    map[string]*cacheSlot[V]{},
		kind:     kind,
		sink:     sink,
	}
}

// event reports one outcome to the sink, if any.
func (c *Cache[V]) event(outcome obs.CacheOutcome) {
	if c.sink != nil {
		c.sink.CacheEvent(c.kind, outcome)
	}
}

// Get returns the value for key, building it with build on a miss. hit
// reports whether a warm (or in-flight, or negative) entry was reused.
func (c *Cache[V]) Get(key string, build func() (V, error)) (val V, hit bool, err error) {
	var zero V
	c.mu.Lock()
	if slot, ok := c.slots[key]; ok {
		// Completed negative entries stay at the eviction end: a cached
		// empty verdict must never out-compete warm geometry that cost
		// real preparation work (see the negative placement in the build
		// path below).
		refresh := true
		select {
		case <-slot.ready:
			refresh = !slot.negative
		default:
		}
		if refresh {
			c.ll.MoveToFront(slot.elem)
		}
		c.mu.Unlock()
		<-slot.ready
		if slot.err != nil {
			if slot.negative {
				// A cached verdict: the target is deterministically empty
				// or unusable; O(1) replay of the error.
				c.event(obs.NegativeHit)
				return zero, true, slot.err
			}
			// Joined a flight that failed transiently: no value was
			// shared, so this is neither a hit nor a countable miss.
			return zero, false, slot.err
		}
		c.event(obs.Hit)
		return slot.val, true, nil
	}
	slot := &cacheSlot[V]{key: key, ready: make(chan struct{})}
	slot.elem = c.ll.PushFront(slot)
	c.slots[key] = slot
	// Capacity is enforced after the build completes, when the entry's
	// kind is known: an in-flight build must not evict warm geometry
	// only to turn out to be a cheap negative verdict.
	c.mu.Unlock()
	c.event(obs.Miss)

	// The ready channel must close even if build panics (numeric code on
	// adversarial programs), or every later Get for this key would block
	// forever on an unevictable in-flight slot.
	finished := false
	defer func() {
		if !finished {
			slot.err = errBuildPanic
			close(slot.ready)
			c.remove(slot)
		}
	}()
	slot.val, slot.err = build()
	finished = true
	slot.negative = slot.err != nil && IsNegative(slot.err)
	close(slot.ready)
	if slot.err != nil && !slot.negative {
		c.remove(slot)
		return slot.val, false, slot.err
	}
	c.mu.Lock()
	if cur, ok := c.slots[slot.key]; ok && cur == slot && slot.negative {
		// Park negative entries at the LRU's eviction end: they are
		// cheap to rebuild (a support check), so a sweep of distinct
		// empty probes evicts earlier negatives first and never pushes
		// expensively prepared geometry out of the cache.
		c.ll.MoveToBack(slot.elem)
	}
	evicted := c.evictLocked(slot)
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, v := range evicted {
			c.onEvict(v.key, v.val)
		}
	}
	return slot.val, false, slot.err
}

// evictLocked drops completed slots until the cache fits its capacity,
// never evicting keep (the slot whose completion triggered the pass —
// a fresh negative verdict must not evict itself, or negative caching
// silently disables at capacity). Within the budget it prefers
// evicting completed negative entries (cheap verdicts) over positives
// (expensive geometry), oldest first; in-flight builds are never
// evicted (their waiters hold the slot anyway). It returns the evicted
// slots for the onEvict notification. Callers must hold c.mu.
func (c *Cache[V]) evictLocked(keep *cacheSlot[V]) (evicted []*cacheSlot[V]) {
	for c.ll.Len() > c.capacity {
		victim := c.victimLocked(keep, true) // other negatives first
		if victim == nil {
			victim = c.victimLocked(keep, false)
		}
		if victim == nil {
			return evicted // everything over capacity is in flight or keep
		}
		c.ll.Remove(victim.elem)
		delete(c.slots, victim.key)
		c.event(obs.Eviction)
		evicted = append(evicted, victim)
	}
	return evicted
}

// victimLocked scans from the eviction end for a completed slot other
// than keep; negativeOnly restricts the scan to negative entries.
func (c *Cache[V]) victimLocked(keep *cacheSlot[V], negativeOnly bool) *cacheSlot[V] {
	for e := c.ll.Back(); e != nil; e = e.Prev() {
		slot := e.Value.(*cacheSlot[V])
		if slot == keep {
			continue
		}
		select {
		case <-slot.ready:
		default:
			continue // still building
		}
		if negativeOnly && !slot.negative {
			continue
		}
		return slot
	}
	return nil
}

// remove drops a slot (used for transiently failed builds).
func (c *Cache[V]) remove(slot *cacheSlot[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.slots[slot.key]; ok && cur == slot {
		c.ll.Remove(slot.elem)
		delete(c.slots, slot.key)
	}
}

// Peek reports whether key holds a completed entry, without touching
// the LRU order, joining an in-flight build or counting hit/miss
// metrics. negative reports whether the entry is a cached verdict.
// Explain-style introspection uses it to label cache residency.
func (c *Cache[V]) Peek(key string) (cached, negative bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[key]
	if !ok {
		return false, false
	}
	select {
	case <-slot.ready:
		return true, slot.negative
	default:
		return false, false // still building
	}
}

// Keys snapshots the keys of all completed entries (in-flight builds
// are excluded), in no particular order. The LRU order and metrics are
// untouched. Cluster tests use it to assert that each key is warm on
// exactly one node.
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.slots))
	for key, slot := range c.slots {
		select {
		case <-slot.ready:
			out = append(out, key)
		default:
		}
	}
	return out
}

// Len returns the number of cached (or in-flight) entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Counts reports the completed entries resident in the cache and how
// many of them are negative verdicts. In-flight builds are excluded;
// the LRU order and the metrics are untouched (introspection only).
func (c *Cache[V]) Counts() (entries, negatives int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range c.slots {
		select {
		case <-slot.ready:
			entries++
			if slot.negative {
				negatives++
			}
		default:
		}
	}
	return entries, negatives
}

// SamplerCache is the prepared-sampler cache: a singleflight LRU over
// (database, target, Options) keys whose values are warm *Prepared
// instances.
type SamplerCache = Cache[*Prepared]
