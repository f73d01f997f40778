package core_test

import (
	"fmt"
	"sync"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
)

// mkWorkload builds a deterministic (document, store, directory) triple
// for index tests.
func mkWorkload(t *testing.T, seed int64) (*dom.Document, *authz.Store, *subjects.Directory, workload.AuthConfig) {
	t.Helper()
	cfg := workload.AuthConfig{
		N:                 24,
		Doc:               workload.DocConfig{Depth: 3, Fanout: 4, Attrs: 2, Seed: seed},
		SchemaFraction:    0.25,
		PredicateFraction: 0.4,
		WeakFraction:      0.2,
		Seed:              seed,
	}.Norm()
	doc := workload.GenDocument(cfg.Doc)
	inst, schema := workload.GenAuths(cfg)
	store := authz.NewStore()
	if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
		t.Fatal(err)
	}
	if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
		t.Fatal(err)
	}
	return doc, store, workload.GenDirectory(cfg.Pop), cfg
}

// requireSameView asserts that two engines produce identical labelings
// and identical serialized views for the same request over doc.
func requireSameView(t *testing.T, a, b *core.Engine, req core.Request, doc *dom.Document) {
	t.Helper()
	va, err := a.ComputeView(req, doc)
	if err != nil {
		t.Fatalf("indexed engine: %v", err)
	}
	vb, err := b.ComputeView(req, doc)
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	if got, want := va.XMLIndent("  "), vb.XMLIndent("  "); got != want {
		t.Fatalf("views differ for %s:\nindexed:\n%s\noracle:\n%s", req.Requester, got, want)
	}
	lbA, _, err := a.Label(req, doc)
	if err != nil {
		t.Fatalf("indexed engine: %v", err)
	}
	lbB, _, err := b.Label(req, doc)
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	doc.Walk(func(n *dom.Node) bool {
		la, lb := lbA.Of(n), lbB.Of(n)
		switch {
		case la == nil && lb == nil:
		case la == nil || lb == nil || *la != *lb:
			t.Fatalf("label of node %d (%s %q) differs: indexed %+v, oracle %+v",
				n.Order, n.Type, n.Name, la, lb)
		}
		return true
	})
}

// The node-set index must be observationally invisible: for any
// document, authorization set, and requester, labeling with the index
// enabled is identical — label tuples and serialized view bytes — to
// the uncached oracle that evaluates every path per request.
func TestAuthIndexDifferentialRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			doc, store, dir, cfg := mkWorkload(t, seed)
			indexed := core.NewEngine(dir, store)
			oracle := core.NewEngine(dir, store)
			oracle.SetAuthIndex(nil)
			if indexed.AuthIndex() == nil {
				t.Fatal("NewEngine should install a node-set index")
			}
			for i := int64(0); i < 12; i++ {
				req := core.Request{
					Requester: workload.GenRequester(cfg.Pop, seed*100+i),
					URI:       cfg.URI,
					DTDURI:    cfg.DTDURI,
				}
				// Twice per requester: the second pass runs fully warm.
				requireSameView(t, indexed, oracle, req, doc)
				requireSameView(t, indexed, oracle, req, doc)
			}
			st := indexed.AuthIndex().Stats()
			if st.Fills == 0 || st.Hits == 0 {
				t.Fatalf("index never exercised: %+v", st)
			}
			if st.Fills > uint64(cfg.N) {
				t.Fatalf("more fills (%d) than authorizations (%d): singleflight broken", st.Fills, cfg.N)
			}
		})
	}
}

// Concurrent requests over one document must singleflight their fills:
// each (document, authorization) path is evaluated at most once no
// matter how many goroutines race, and every goroutine sees the oracle
// labeling. Run under -race this pins the index's concurrency contract.
func TestAuthIndexConcurrentFills(t *testing.T) {
	doc, store, dir, cfg := mkWorkload(t, 42)
	indexed := core.NewEngine(dir, store)
	oracle := core.NewEngine(dir, store)
	oracle.SetAuthIndex(nil)

	const goroutines = 16
	reqs := make([]core.Request, 4)
	wants := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = core.Request{
			Requester: workload.GenRequester(cfg.Pop, int64(900+i)),
			URI:       cfg.URI,
			DTDURI:    cfg.DTDURI,
		}
		v, err := oracle.ComputeView(reqs[i], doc)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = v.XMLIndent("  ")
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(reqs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				v, err := indexed.ComputeView(req, doc)
				if err != nil {
					errs <- err
					return
				}
				if got := v.XMLIndent("  "); got != wants[i] {
					errs <- fmt.Errorf("concurrent view for %s diverged from oracle", req.Requester)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := indexed.AuthIndex().Stats()
	if st.Fills > uint64(cfg.N) {
		t.Fatalf("fills (%d) exceed authorization count (%d): concurrent fills not deduplicated", st.Fills, cfg.N)
	}
	if st.Documents != 1 {
		t.Fatalf("expected 1 indexed document, got %d", st.Documents)
	}
}

// Mutating the authorization store bumps its generation; the next
// lookup must rebuild the document's entry rather than serve node-sets
// gathered under the old policy.
func TestAuthIndexStoreMutationInvalidates(t *testing.T) {
	doc, _ := labexample.Parse()
	store := labexample.Store()
	dir := labexample.Directory()
	indexed := core.NewEngine(dir, store)
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}

	before, err := indexed.ComputeView(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	if before.Empty() {
		t.Fatal("expected a non-empty initial view")
	}

	// Deny Tom's group the public papers his old view rested on: the
	// strong recursive minus attaches to the same nodes as the weak
	// recursive grant and wins first_def there, and Foreign is more
	// specific than Public for Tom.
	deny := authz.MustParse(`<<Foreign,*,*>,` + labexample.DocURI +
		`:/laboratory//paper[./@category="public"],read,-,R>`)
	if err := store.Add(authz.InstanceLevel, deny); err != nil {
		t.Fatal(err)
	}

	after, err := indexed.ComputeView(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewEngine(dir, store)
	oracle.SetAuthIndex(nil)
	want, err := oracle.ComputeView(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := after.XMLIndent("  "), want.XMLIndent("  "); got != w {
		t.Fatalf("post-mutation view is stale:\nindexed:\n%s\noracle:\n%s", got, w)
	}
	if after.XMLIndent("  ") == before.XMLIndent("  ") {
		t.Fatal("new deny authorization had no effect: stale node-sets served")
	}
	if st := indexed.AuthIndex().Stats(); st.Invalidations == 0 {
		t.Fatalf("store mutation recorded no invalidation: %+v", st)
	}
}

// SetPolicy flushes the index (conservative invalidation).
func TestAuthIndexSetPolicyInvalidates(t *testing.T) {
	doc, _ := labexample.Parse()
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	if _, err := eng.ComputeView(req, doc); err != nil {
		t.Fatal(err)
	}
	if st := eng.AuthIndex().Stats(); st.Documents != 1 {
		t.Fatalf("expected 1 indexed document, got %+v", st)
	}
	eng.SetPolicy(labexample.DocURI, core.Policy{Conflict: core.DenialsTakePrecedence, Open: true})
	st := eng.AuthIndex().Stats()
	if st.Documents != 0 || st.Invalidations == 0 {
		t.Fatalf("SetPolicy did not flush the index: %+v", st)
	}
}

// WarmAuthIndex pre-fills node-sets for every authorization attached to
// the document and DTD, so the first request of any requester labels
// without a single miss.
func TestAuthIndexWarm(t *testing.T) {
	doc, store, dir, cfg := mkWorkload(t, 7)
	eng := core.NewEngine(dir, store)
	eng.WarmAuthIndex(doc, cfg.URI, cfg.DTDURI, 8)
	warm := eng.AuthIndex().Stats()
	if warm.Fills == 0 || warm.Entries == 0 {
		t.Fatalf("warm-up filled nothing: %+v", warm)
	}
	req := core.Request{Requester: workload.GenRequester(cfg.Pop, 3), URI: cfg.URI, DTDURI: cfg.DTDURI}
	if _, err := eng.ComputeView(req, doc); err != nil {
		t.Fatal(err)
	}
	st := eng.AuthIndex().Stats()
	if st.Misses != warm.Misses {
		t.Fatalf("first request after warm-up missed: warm %+v, after %+v", warm, st)
	}
	if st.Hits <= warm.Hits {
		t.Fatalf("first request after warm-up recorded no hits: warm %+v, after %+v", warm, st)
	}
}
