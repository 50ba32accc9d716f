package runtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/constraint"
)

// ErrConflict reports a registration under an id that already holds a
// different program.
var ErrConflict = errors.New("runtime: database id already registered with different source")

// ErrRegistryFull reports that the registry reached its capacity.
var ErrRegistryFull = errors.New("runtime: database registry is full")

// DatabaseEntry is one registered constraint database program.
type DatabaseEntry struct {
	ID        string
	Name      string
	Source    string
	DB        *constraint.Database
	CreatedAt time.Time

	plans sync.Map // name → *query.CanonicalPlan, filled by Plan
}

// Registry holds the parsed constraint databases a runtime can sample
// from. Registration parses and compiles the program once; all later
// requests address relations and queries by (database id, name).
type Registry struct {
	mu    sync.RWMutex
	byID  map[string]*DatabaseEntry
	order []string // registration order for stable listings
	cap   int      // 0 = unbounded
}

// NewRegistry returns an empty registry holding at most capacity
// databases (0 = unbounded).
func NewRegistry(capacity int) *Registry {
	return &Registry{byID: map[string]*DatabaseEntry{}, cap: capacity}
}

// DatabaseID returns the id a program registers under: the explicit name
// when given, otherwise a content hash of the source — so anonymous
// re-registrations of the same program are idempotent.
func DatabaseID(name, source string) string {
	if name != "" {
		return name
	}
	h := fnv.New64a()
	h.Write([]byte(source))
	return fmt.Sprintf("db-%012x", h.Sum64()&0xffffffffffff)
}

// Register parses source and stores it under DatabaseID(name, source).
// Re-registering identical source under the same id is idempotent
// (created=false); a conflicting source for an existing id is an error.
func (r *Registry) Register(name, source string) (entry *DatabaseEntry, created bool, err error) {
	db, err := constraint.Parse(source)
	if err != nil {
		return nil, false, fmt.Errorf("parse: %w", err)
	}
	return r.add(name, source, db)
}

// RegisterParsed stores an already-parsed database under
// DatabaseID(name, source) with the same idempotence and conflict rules
// as Register. Source may be empty for databases built in code; the id
// then hashes the empty string unless a name is given.
func (r *Registry) RegisterParsed(name, source string, db *constraint.Database) (*DatabaseEntry, bool, error) {
	return r.add(name, source, db)
}

func (r *Registry) add(name, source string, db *constraint.Database) (*DatabaseEntry, bool, error) {
	id := DatabaseID(name, source)
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byID[id]; ok {
		if existing.Source == source {
			return existing, false, nil
		}
		return nil, false, fmt.Errorf("%w: %q", ErrConflict, id)
	}
	if r.cap > 0 && len(r.byID) >= r.cap {
		return nil, false, fmt.Errorf("%w (capacity %d)", ErrRegistryFull, r.cap)
	}
	entry := &DatabaseEntry{ID: id, Name: name, Source: source, DB: db, CreatedAt: time.Now()}
	r.byID[id] = entry
	r.order = append(r.order, id)
	return entry, true, nil
}

// Get returns a registered database by id.
func (r *Registry) Get(id string) (*DatabaseEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byID[id]
	return e, ok
}

// List returns the registered databases in registration order.
func (r *Registry) List() []*DatabaseEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*DatabaseEntry, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// Len returns the number of registered databases.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}
