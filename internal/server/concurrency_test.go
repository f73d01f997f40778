package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
)

// TestConcurrentProcess drives the full processor from many goroutines
// with a mix of requesters, cache enabled, while authorizations are
// added concurrently — run with -race this pins down the engine's and
// stores' thread safety.
func TestConcurrentProcess(t *testing.T) {
	site := labSite(t).EnableViewCache(32)
	site.Resolver.(*StaticResolver).Add("130.89.56.8", "adminhost.lab.com")
	requesters := []subjects.Requester{
		labexample.Tom,
		{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"},
		{User: "anonymous", IP: "200.1.2.3", Host: "out.example.org"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rq := requesters[(g+i)%len(requesters)]
				res, err := site.Process(rq, labexample.DocURI)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", rq, err)
					return
				}
				if res.XML == "" {
					errs <- fmt.Errorf("%s: empty XML", rq)
					return
				}
			}
		}(g)
	}
	// Concurrent policy churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			a := authz.MustParse(fmt.Sprintf(
				`<<g%d,*,*>,CSlab.xml://fund,read,-,L>`, i))
			if err := site.Auths.Add(authz.InstanceLevel, a); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentCachedViewImmutability pins that the documents behind
// cached ProcessResult.View entries are never mutated by concurrent
// /docs/ reads and /query/ evaluations on the same cache entry. Since
// QueryDoc obtains its view through Process, both endpoints share one
// cached *core.View per requester class: any write to that shared tree
// shows up here as a -race report or as a response that drifts from the
// baseline.
func TestConcurrentCachedViewImmutability(t *testing.T) {
	site := labSite(t).EnableViewCache(8)
	h := site.Handler()

	const doc = "/docs/CSlab.xml"
	const query = "/query/CSlab.xml?q=//title"
	_, wantDoc := get(t, h, doc, "Tom", "pw-tom", "130.100.50.8")
	_, wantQuery := get(t, h, query, "Tom", "pw-tom", "130.100.50.8")
	if hits, _ := site.CacheStats(); hits == 0 {
		t.Fatal("the two baseline requests should share one cache entry")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var path, want string
				if (g+i)%2 == 0 {
					path, want = doc, wantDoc
				} else {
					path, want = query, wantQuery
				}
				code, body := get(t, h, path, "Tom", "pw-tom", "130.100.50.8")
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s: HTTP %d", path, code)
					return
				}
				if body != want {
					errs <- fmt.Errorf("%s: response drifted from baseline:\n got: %s\nwant: %s", path, body, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentUncachedViewsShareOneDocument pins the mask pipeline's
// core concurrency contract: with no view cache, every request labels
// and masks the SAME parsed document — nothing is cloned per request —
// so view computation must never write to the shared tree. Mixed
// Process and QueryDoc traffic from many goroutines (the latter also
// exercising the lazy one-time view materialization) must produce
// byte-identical responses throughout and leave the stored document
// untouched. Run with -race.
func TestConcurrentUncachedViewsShareOneDocument(t *testing.T) {
	site := labSite(t) // no EnableViewCache: every request recomputes
	before := site.Docs.Doc(labexample.DocURI).Doc.String()

	baseRes, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	baseQuery, err := site.QueryDoc(labexample.Tom, labexample.DocURI, "//title")
	if err != nil {
		t.Fatal(err)
	}
	wantXML, wantQuery := baseRes.XML, baseQuery.String()

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if (g+i)%2 == 0 {
					res, err := site.Process(labexample.Tom, labexample.DocURI)
					if err != nil {
						errs <- err
						return
					}
					if res.XML != wantXML {
						errs <- fmt.Errorf("view drifted across concurrent recomputations")
						return
					}
				} else {
					qd, err := site.QueryDoc(labexample.Tom, labexample.DocURI, "//title")
					if err != nil {
						errs <- err
						return
					}
					if qd.String() != wantQuery {
						errs <- fmt.Errorf("query result drifted across concurrent recomputations")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := site.Docs.Doc(labexample.DocURI).Doc.String(); after != before {
		t.Errorf("shared document mutated by view computation:\nbefore %s\nafter  %s", before, after)
	}
}
