package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
)

func TestViewCacheHitsAndCorrectness(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	first, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	second, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if first.XML != second.XML {
		t.Error("cached view differs")
	}
	hits, misses := site.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// Different requester → different entry, never Tom's bytes.
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	samRes, err := site.Process(sam, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if samRes.XML == first.XML {
		t.Error("cache leaked one requester's view to another")
	}
}

func TestViewCacheInvalidatedByAuthChange(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	before, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	// New denial: Tom loses the manager subtree.
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Foreign,*,*>,CSlab.xml://manager,read,-,R>`)); err != nil {
		t.Fatal(err)
	}
	after, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if after.XML == before.XML {
		t.Error("stale view served after authorization change")
	}
	if strings.Contains(after.XML, "Bob Codd") {
		t.Errorf("denial not enforced after cache invalidation:\n%s", after.XML)
	}
}

func TestViewCacheInvalidatedByDocumentChange(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Admin,*,*>,CSlab.xml:/laboratory,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	if err := site.GrantWrite(authz.InstanceLevel,
		`<<Admin,*,*>,CSlab.xml:/laboratory,write,+,R>`); err != nil {
		t.Fatal(err)
	}
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	before, err := site.Process(sam, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Update(sam, labexample.DocURI, updatedCSlab); err != nil {
		t.Fatal(err)
	}
	after, err := site.Process(sam, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if after.XML == before.XML {
		t.Error("stale view served after document update")
	}
}

func TestViewCacheBypassedWithTimeBoundedAuths(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	a := authz.MustParse(`<<Public,*,*>,CSlab.xml://fund,read,+,R>`)
	a.Validity.NotAfter = time.Now().Add(time.Hour)
	if err := site.Auths.Add(authz.InstanceLevel, a); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	hits, _ := site.CacheStats()
	if hits != 0 {
		t.Errorf("cache used despite time-bounded authorizations: %d hits", hits)
	}
}

// TestViewCacheLRUEviction: under a fixed generation vector the cache
// is a plain LRU of bounded size.
func TestViewCacheLRUEviction(t *testing.T) {
	c := newViewCache(2)
	g := generations{Auth: 3, Doc: 5, Policy: 1, Directory: 2}
	k1 := viewKey{class: 1, uri: "1", gen: g}
	k2 := viewKey{class: 1, uri: "2", gen: g}
	k3 := viewKey{class: 1, uri: "3", gen: g}
	c.put(k1, &ProcessResult{XML: "1"})
	c.put(k2, &ProcessResult{XML: "2"})
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 should be cached")
	}
	c.put(k3, &ProcessResult{XML: "3"}) // evicts k2 (least recent)
	if _, ok := c.get(k2); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.get(k1); !ok {
		t.Error("k1 should have survived (recently used)")
	}
	if _, ok := c.get(k3); !ok {
		t.Error("k3 should be cached")
	}
	// Overwriting an existing key keeps the size bounded.
	c.put(k3, &ProcessResult{XML: "3b"})
	if got, _ := c.get(k3); got.XML != "3b" {
		t.Error("put should replace existing entries")
	}
}

// TestViewCachePerDocumentTimeBoundedBypass: a validity window on one
// document's authorizations must not disable caching for every other
// document — the bypass is per document, keyed on the authorizations
// actually applicable to it.
func TestViewCachePerDocumentTimeBoundedBypass(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	if err := site.Docs.AddDocument("memo.xml", `<memo><body>hello</body></memo>`); err != nil {
		t.Fatal(err)
	}
	a := authz.MustParse(`<<Public,*,*>,memo.xml:/memo,read,+,R>`)
	a.Validity.NotAfter = time.Now().Add(time.Hour)
	if err := site.Auths.Add(authz.InstanceLevel, a); err != nil {
		t.Fatal(err)
	}
	// memo.xml views are time-dependent: never cached.
	for i := 0; i < 2; i++ {
		if _, err := site.Process(labexample.Tom, "memo.xml"); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := site.CacheStats(); hits != 0 {
		t.Errorf("time-bounded document served from cache: %d hits", hits)
	}
	// CSlab.xml has no time-bounded authorizations: still cached.
	for i := 0; i < 2; i++ {
		if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := site.CacheStats(); hits != 1 {
		t.Errorf("unrelated document lost its cache: %d hits, want 1", hits)
	}
}

// TestViewCacheNotStaleAcrossValidityExpiry is the regression test for
// the cache/validity interaction: when an applicable authorization's
// validity window lapses between two requests — with no store or
// document change to bump a generation — the second request must
// reflect the lapse, not a memoized view from inside the window.
func TestViewCacheNotStaleAcrossValidityExpiry(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	a := authz.MustParse(`<<Public,*,*>,CSlab.xml://fund,read,+,R>`)
	a.Validity.NotAfter = time.Now().Add(60 * time.Millisecond)
	if err := site.Auths.Add(authz.InstanceLevel, a); err != nil {
		t.Fatal(err)
	}
	inside, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inside.XML, "MURST") {
		t.Fatalf("fund grant not in force inside its window:\n%s", inside.XML)
	}
	time.Sleep(80 * time.Millisecond)
	after, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after.XML, "MURST") {
		t.Errorf("expired grant still visible (stale cached view):\n%s", after.XML)
	}
}

// TestViewCacheGenerations pins the retirement invariant: the cache
// holds entries of one generation vector only. A lookup or install
// under a vector newer in any component empties it, an install under a
// vector lower in any component is refused. (TestViewCacheLRUEviction
// covers a fixed vector.)
func TestViewCacheGenerations(t *testing.T) {
	g1 := generations{Auth: 3, Doc: 5, Policy: 1, Directory: 2}
	key := func(uri string, g generations) viewKey { return viewKey{class: 1, uri: uri, gen: g} }
	res := func(s string) *ProcessResult { return &ProcessResult{XML: s} }
	for _, tc := range []struct {
		name string
		run  func(c *viewCache) (wantLen int, wantGen generations)
	}{
		{"install under a newer vector empties the cache", func(c *viewCache) (int, generations) {
			c.put(key("a", g1), res("a"))
			c.put(key("b", g1), res("b"))
			g2 := g1
			g2.Doc++
			c.put(key("c", g2), res("c"))
			if _, ok := c.get(key("a", g1)); ok {
				t.Error("an entry of the superseded vector survived")
			}
			return 1, g2
		}},
		{"lookup under a newer vector empties the cache", func(c *viewCache) (int, generations) {
			c.put(key("a", g1), res("a"))
			g2 := g1
			g2.Directory++
			if _, fl, leader := c.beginFlight(key("a", g2)); !leader {
				t.Error("a lookup under a newer vector must lead a new flight")
			} else {
				c.completeFlight(key("a", g2), fl, nil, nil, false)
			}
			return 0, g2
		}},
		{"install under an older vector is refused", func(c *viewCache) (int, generations) {
			c.put(key("a", g1), res("a"))
			old := g1
			old.Auth--
			c.put(key("b", old), res("b"))
			if _, ok := c.get(key("a", g1)); !ok {
				t.Error("a stale install retired the current entries")
			}
			return 1, g1
		}},
		{"install under an incomparable vector is refused", func(c *viewCache) (int, generations) {
			c.put(key("a", g1), res("a"))
			mixed := g1
			mixed.Policy++
			mixed.Doc--
			c.put(key("b", mixed), res("b"))
			return 0, generations{Auth: 3, Doc: 5, Policy: 2, Directory: 2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newViewCache(2)
			wantLen, wantGen := tc.run(c)
			gen, entries := c.Entries()
			if c.Len() != wantLen || len(entries) != wantLen || gen != wantGen {
				t.Fatalf("cache holds %d entries under %+v, want %d under %+v", c.Len(), gen, wantLen, wantGen)
			}
			for _, e := range entries {
				if got := (generations{e.AuthGen, e.DocGen, e.PolicyGen, e.DirectoryGen}); got != gen {
					t.Errorf("entry %s keyed under %+v, not the cache's %+v", e.URI, got, gen)
				}
			}
		})
	}
}

// currentGenerations reads the site's generation vector.
func currentGenerations(s *Site) generations {
	return generations{s.Auths.Generation(), s.Docs.Generation(), s.Engine.PolicyGeneration(), s.Directory.Generation()}
}

// TestViewCacheRetiresUnderConcurrentUpdates races readers against
// targeted updates. Once the writers stop and each reader has read
// again, every cached view must carry the site's current generations:
// no entry of a superseded vector outlives the traffic. Run with -race.
func TestViewCacheRetiresUnderConcurrentUpdates(t *testing.T) {
	site, sam := writerSite(t)
	site.EnableViewCache(64)
	readers := []subjects.Requester{labexample.Tom, sam, {User: "anonymous", IP: "10.0.0.1"}}
	var writersDone atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(rq subjects.Requester) {
			defer wg.Done()
			for last := false; !last; {
				last = writersDone.Load()
				if _, err := site.Process(rq, labexample.DocURI); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}(readers[g%len(readers)])
	}
	for i := 0; i < 40; i++ {
		script := fmt.Sprintf("replace-text //flname Writer %d", i)
		if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI, script); err != nil {
			t.Fatal(err)
		}
	}
	writersDone.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := currentGenerations(site)
	gen, entries := site.cache.Entries()
	if gen != want || len(entries) == 0 {
		t.Fatalf("cache at %+v with %d entries, want the current %+v and at least one entry", gen, len(entries), want)
	}
	for _, e := range entries {
		if got := (generations{e.AuthGen, e.DocGen, e.PolicyGen, e.DirectoryGen}); got != want {
			t.Errorf("class %d's view of %s keyed under %+v, want the current %+v", e.Class, e.URI, got, want)
		}
	}
}

// TestSupersededDocumentReleased pins that the view cache does not keep
// a replaced document alive: once a PUT supersedes the version a cached
// view was computed over and one more read is served, nothing reaches
// the old version, so its arena is collected.
func TestSupersededDocumentReleased(t *testing.T) {
	site, sam := writerSite(t)
	site.EnableViewCache(16)
	var released atomic.Bool
	// Everything that reaches the old version lives in this closure's
	// frame, which is gone by the time the collector runs.
	func() {
		old := site.Docs.Doc(labexample.DocURI)
		if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
			t.Fatal(err)
		}
		// The arena holds no *Node, so no cycle through the tree can keep
		// the finalizer from running.
		runtime.SetFinalizer(old.Doc.ReadArena(), func(*dom.Arena) { released.Store(true) })
	}()
	if err := site.Update(sam, labexample.DocURI, updatedCSlab); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !released.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if !released.Load() {
		t.Error("the superseded document is still reachable after its views were retired")
	}
	// Without this the whole site is unreachable too, and the test would
	// pass whatever the cache retained.
	runtime.KeepAlive(site)
}
