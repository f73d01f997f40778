package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"xmlsec/internal/subjects"
)

// viewCache memoizes processed views per document and per
// authorization-equivalence *class* rather than per requester triple: a view depends on a requester only through the set of
// authorizations applicable to it (subjects.ClassIndex), so the cache
// holds one entry per (class, document) however many distinct
// requesters are served. Entries are additionally keyed on the
// authorization-store, document-store, policy and directory
// generations, so any policy or content change invalidates them
// implicitly; an LRU bound keeps memory flat.
//
// All four generations only ever grow, so an entry keyed under an older
// vector can never be served again — and it pins a superseded document
// version (tree and arena) for as long as it stays. The cache therefore
// holds entries of one vector only, gen: the first lookup or install
// carrying a vector newer in any component retires every entry, and an
// install under a vector lower in any component is refused.
//
// The cache is sound because view computation is deterministic in
// (applicability set, document, policy): two requests in the same
// class always receive byte-identical views. Authorizations with
// validity windows make views time-dependent, so Process bypasses the
// cache for documents that have any (see SnapshotFor).
//
// Misses are single-flighted per key: a thundering herd of equivalent
// requesters behind one cold entry computes the view exactly once,
// with the followers waiting on the leader's flight instead of
// stampeding the engine.
type viewCache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List // front = most recent; values are *cacheEntry
	index   map[viewKey]*list.Element
	flights map[viewKey]*flight
	gen     generations // the vector every cached entry is keyed under

	hits, misses, coalesced atomic.Uint64
}

// generations is the vector of site generations a view is computed
// under. Every component only ever grows.
type generations struct {
	Auth      uint64 `json:"auth"`
	Doc       uint64 `json:"doc"`
	Policy    uint64 `json:"policy"`
	Directory uint64 `json:"directory"`
}

// newerIn reports whether g is newer than h in any component.
func (g generations) newerIn(h generations) bool {
	return g.Auth > h.Auth || g.Doc > h.Doc || g.Policy > h.Policy || g.Directory > h.Directory
}

// join returns the componentwise maximum of g and h.
func (g generations) join(h generations) generations {
	return generations{max(g.Auth, h.Auth), max(g.Doc, h.Doc), max(g.Policy, h.Policy), max(g.Directory, h.Directory)}
}

// viewKey identifies one cached view. The requester appears only
// through its equivalence class.
type viewKey struct {
	class subjects.ClassID
	uri   string
	gen   generations
}

type cacheEntry struct {
	key viewKey
	res *ProcessResult
	at  time.Time // installation (or refresh) instant, for /debug/cachez
}

// flight is one in-progress view computation: the leader computes and
// completes it, followers for the same key block on done. res may be
// nil after done closes when the leader failed before producing a
// result (its error is in err) — or, exceptionally, when the leader
// panicked; followers then compute for themselves.
type flight struct {
	done chan struct{}
	res  *ProcessResult
	err  error
}

func newViewCache(max int) *viewCache {
	if max <= 0 {
		max = 1024
	}
	return &viewCache{
		max:     max,
		lru:     list.New(),
		index:   make(map[viewKey]*list.Element),
		flights: make(map[viewKey]*flight),
	}
}

func (c *viewCache) get(k viewKey) (*ProcessResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(k.gen)
	el, ok := c.index[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).res, true
}

// beginFlight is the miss path's entry point: a cache hit returns the
// entry directly; otherwise the caller either becomes the leader of a
// new flight for k (leader=true: compute the view, then call
// completeFlight exactly once) or receives an existing flight to wait
// on (leader=false: block on fl.done, then read fl.res/fl.err).
func (c *viewCache) beginFlight(k viewKey) (res *ProcessResult, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(k.gen)
	if el, ok := c.index[k]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).res, nil, false
	}
	if fl, ok := c.flights[k]; ok {
		c.coalesced.Add(1)
		return nil, fl, false
	}
	c.misses.Add(1)
	fl = &flight{done: make(chan struct{})}
	c.flights[k] = fl
	return nil, fl, true
}

// completeFlight publishes the leader's outcome to any followers and,
// when store is set, installs the result in the cache. Leaders that
// observed a generation change across their computation pass
// store=false: the result is still the correct view for the key's
// generations (the document was snapshotted atomically with them), so
// followers may use it, but caching it would race the invalidation
// that the generation bump implies.
func (c *viewCache) completeFlight(k viewKey, fl *flight, res *ProcessResult, err error, store bool) {
	c.mu.Lock()
	if store && err == nil && res != nil {
		c.putLocked(k, res)
	}
	delete(c.flights, k)
	c.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
}

func (c *viewCache) put(k viewKey, res *ProcessResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, res)
}

func (c *viewCache) putLocked(k viewKey, res *ProcessResult) {
	if !c.advanceLocked(k.gen) {
		return // keyed under a superseded vector: it could never hit
	}
	if el, ok := c.index[k]; ok {
		e := el.Value.(*cacheEntry)
		e.res = res
		e.at = time.Now()
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: k, res: res, at: time.Now()})
	c.index[k] = el
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.index, last.Value.(*cacheEntry).key)
	}
}

// advanceLocked moves the cache to vector g and reports whether g is
// the vector the cache now holds entries of. A vector newer in any
// component retires every entry — none can hit again, and each pins a
// superseded document version — so the cache never holds more than one
// vector's views. A vector lower in some component is stale: nothing
// may be installed under it.
func (c *viewCache) advanceLocked(g generations) bool {
	if g.newerIn(c.gen) {
		c.lru.Init()
		clear(c.index)
		c.gen = c.gen.join(g)
	}
	return g == c.gen
}

// Stats reports cache effectiveness.
func (c *viewCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Coalesced reports how many misses waited on another request's
// in-flight computation instead of running their own.
func (c *viewCache) Coalesced() uint64 { return c.coalesced.Load() }

// CacheEntryInfo describes one cached view for state introspection
// (/debug/cachez): its key fields — the equivalence class, the
// document, and the four generations the entry is valid under — plus its age and the size of
// the unparsed XML it shortcuts to.
type CacheEntryInfo struct {
	Class        subjects.ClassID `json:"class"`
	URI          string           `json:"uri"`
	AuthGen      uint64           `json:"auth_gen"`
	DocGen       uint64           `json:"doc_gen"`
	PolicyGen    uint64           `json:"policy_gen"`
	DirectoryGen uint64           `json:"directory_gen"`
	AgeNs        int64            `json:"age_ns"`
	Bytes        int              `json:"bytes"`
}

// Entries returns the vector every cached view is keyed under and a
// snapshot of the views in LRU order (most recently used first).
func (c *viewCache) Entries() (generations, []CacheEntryInfo) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntryInfo, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		info := CacheEntryInfo{
			Class: e.key.class, URI: e.key.uri, AuthGen: e.key.gen.Auth, DocGen: e.key.gen.Doc,
			PolicyGen: e.key.gen.Policy, DirectoryGen: e.key.gen.Directory,
			AgeNs: now.Sub(e.at).Nanoseconds(),
		}
		if e.res != nil {
			info.Bytes = len(e.res.XML)
		}
		out = append(out, info)
	}
	return c.gen, out
}

// Len reports the current number of cached entries. Under class keying
// this is bounded by classes × documents regardless of how many
// requesters have been served — the property `xsbench -exp classes`
// measures.
func (c *viewCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// classKey builds the key of class's view of uri under the given
// generations. dirGen is redundant — a directory change re-partitions
// the class index, whose IDs are never reused — and kept as a cheap
// second guard against serving a view across a membership change.
func classKey(class subjects.ClassID, uri string, authGen, docGen, polGen, dirGen uint64) viewKey {
	return viewKey{class: class, uri: uri, gen: generations{authGen, docGen, polGen, dirGen}}
}
