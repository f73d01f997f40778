package server

import (
	"strings"
	"testing"
	"time"

	"xmlsec/internal/authz"
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

func TestViewCacheLRUEviction(t *testing.T) {
	c := newViewCache(2)
	k1 := viewKey{class: 1, uri: "1"}
	k2 := viewKey{class: 1, uri: "2"}
	k3 := viewKey{class: 1, uri: "3"}
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
