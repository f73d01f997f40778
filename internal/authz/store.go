package authz

import (
	"fmt"
	"sort"
	"sync"

	"xmlsec/internal/subjects"
)

// Level distinguishes where an authorization is attached.
type Level int

// Instance-level authorizations attach to XML documents; schema-level
// authorizations attach to DTDs and propagate to all their instances.
const (
	InstanceLevel Level = iota
	SchemaLevel
)

// String names the level.
func (l Level) String() string {
	if l == SchemaLevel {
		return "schema"
	}
	return "instance"
}

// Store is the server's set Auth of access authorizations, keyed by the
// URI of the object they attach to. It is safe for concurrent use.
type Store struct {
	mu          sync.RWMutex
	gen         uint64
	timeBounded bool
	instance    map[string][]*Authorization // doc URI → auths
	schema      map[string][]*Authorization // DTD URI → auths
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		instance: make(map[string][]*Authorization),
		schema:   make(map[string][]*Authorization),
	}
}

// Add records an authorization at the given level, keyed by its object
// URI. Weak authorizations are rejected at schema level: per the paper,
// strength only inverts the instance/schema priority and has no meaning
// on a DTD.
func (s *Store) Add(level Level, a *Authorization) error {
	if a == nil {
		return fmt.Errorf("authz: nil authorization")
	}
	if level == SchemaLevel && a.Type.IsWeak() {
		return fmt.Errorf("authz: weak authorization %s not allowed at schema level", a)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch level {
	case InstanceLevel:
		s.instance[a.Object.URI] = append(s.instance[a.Object.URI], a)
	case SchemaLevel:
		s.schema[a.Object.URI] = append(s.schema[a.Object.URI], a)
	default:
		return fmt.Errorf("authz: unknown level %d", level)
	}
	s.gen++
	if !a.Validity.IsZero() {
		s.timeBounded = true
	}
	return nil
}

// Generation returns a counter that changes whenever the stored
// authorization set changes; caches key their entries on it so policy
// changes invalidate derived views.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// SnapshotFor returns, under one lock acquisition, the store
// generation together with whether any authorization applicable to the
// given document — instance-level on docURI or schema-level on dtdURI —
// carries a validity window, which makes that document's views
// time-dependent (caches bypass them; other documents' views stay
// cacheable). Cache keying must read both atomically: reading them in
// two calls lets a concurrent policy change slip between, filing a
// view computed under one generation beneath another's key.
func (s *Store) SnapshotFor(docURI, dtdURI string) (gen uint64, timeBounded bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	gen = s.gen
	if !s.timeBounded {
		return gen, false
	}
	for _, a := range s.instance[docURI] {
		if !a.Validity.IsZero() {
			return gen, true
		}
	}
	if dtdURI != "" {
		for _, a := range s.schema[dtdURI] {
			if !a.Validity.IsZero() {
				return gen, true
			}
		}
	}
	return gen, false
}

// SubjectUniverse returns the subjects of every stored authorization —
// both levels, all objects, all actions — together with the generation
// they were read under (one lock acquisition, so universe and
// generation always agree). This is the input the equivalence-class
// index partitions requesters against: a requester's class is its
// applicability set over exactly this universe. Duplicates are not
// removed here; the class index canonicalizes.
func (s *Store) SubjectUniverse() ([]subjects.Subject, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, as := range s.instance {
		n += len(as)
	}
	for _, as := range s.schema {
		n += len(as)
	}
	out := make([]subjects.Subject, 0, n)
	for _, as := range s.instance {
		for _, a := range as {
			out = append(out, a.Subject)
		}
	}
	for _, as := range s.schema {
		for _, a := range as {
			out = append(out, a.Subject)
		}
	}
	return out, s.gen
}

// Reset drops every stored authorization (recovery replaces the
// store's content with a snapshot's). The generation still advances,
// so caches and indexes keyed on it cannot serve pre-reset state.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.instance = make(map[string][]*Authorization)
	s.schema = make(map[string][]*Authorization)
	s.timeBounded = false
	s.gen++
}

// AddAll records a batch at the given level; it stops at the first
// error.
func (s *Store) AddAll(level Level, auths []*Authorization) error {
	for _, a := range auths {
		if err := s.Add(level, a); err != nil {
			return err
		}
	}
	return nil
}

// ForDocument returns the instance-level authorizations attached to the
// document URI (the paper's Axml before subject filtering).
//
// The result is the store's own slice, not a copy — every view miss
// reads it — clipped to its length: the store only ever appends, and
// an append never rewrites an element in place, so the result stays
// valid however the store changes, and appending to it reallocates
// instead of writing into the store. Callers must not assign to its
// elements.
func (s *Store) ForDocument(uri string) []*Authorization {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return clip(s.instance[uri])
}

// ForSchema returns the schema-level authorizations attached to the DTD
// URI (the paper's Adtd before subject filtering), shared and clipped
// as ForDocument's are.
func (s *Store) ForSchema(uri string) []*Authorization {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return clip(s.schema[uri])
}

// clip limits a slice's capacity to its length.
func clip(as []*Authorization) []*Authorization { return as[:len(as):len(as)] }

// URIs returns every URI with authorizations at the given level, sorted.
func (s *Store) URIs(level Level) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.instance
	if level == SchemaLevel {
		m = s.schema
	}
	out := make([]string, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of stored authorizations.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, as := range s.instance {
		n += len(as)
	}
	for _, as := range s.schema {
		n += len(as)
	}
	return n
}
