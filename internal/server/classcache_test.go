package server

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
)

// TestViewCacheClassSharingAcrossRequesters pins the tentpole property:
// requesters with identical applicability sets share ONE cache entry,
// however different their raw ⟨user, ip, host⟩ triples are.
func TestViewCacheClassSharingAcrossRequesters(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	// Neither user is in Foreign or Admin, neither IP matches the
	// Admin subject's, and both hosts end in .it: exactly the same
	// authorizations apply, so the same class and the same entry.
	r1 := subjects.Requester{User: "zoe", IP: "1.2.3.4", Host: "a.bld9.it"}
	r2 := subjects.Requester{User: "yan", IP: "9.9.9.9", Host: "b.corp.it"}
	first, err := site.Process(r1, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	second, err := site.Process(r2, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if first.XML != second.XML {
		t.Error("equivalent requesters received different views")
	}
	hits, misses := site.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1 (one shared entry)", hits, misses)
	}
	if n := site.CacheEntries(); n != 1 {
		t.Errorf("cache holds %d entries for two equivalent requesters, want 1", n)
	}
	if s := site.ClassStats(); s.Classes != 1 {
		t.Errorf("class index assigned %d classes, want 1", s.Classes)
	}
}

// TestViewCacheInvalidatedByPolicyChange: SetPolicy alters views
// without touching the authorization or document stores, so the cache
// must key on the policy generation. Before it did, a policy change
// while serving left stale views cached indefinitely.
func TestViewCacheInvalidatedByPolicyChange(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	if err := site.Docs.AddDocument("memo.xml", `<memo><body>secret</body></memo>`); err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{
		`<<Public,*,*>,memo.xml:/memo,read,+,L>`,
		// Two equally specific authorizations conflict on /memo/body;
		// the conflict rule decides, so the policy decides the view.
		`<<Foreign,*,*>,memo.xml:/memo/body,read,+,L>`,
		`<<Foreign,*,*>,memo.xml:/memo/body,read,-,L>`,
	} {
		if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // second call caches
		res, err := site.Process(labexample.Tom, "memo.xml")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(res.XML, "secret") {
			t.Fatalf("denials-take-precedence should hide the body:\n%s", res.XML)
		}
	}
	if hits, _ := site.CacheStats(); hits != 1 {
		t.Fatalf("baseline view not cached (hits=%d)", hits)
	}
	site.Engine.SetPolicy("memo.xml", core.Policy{Conflict: core.PermissionsTakePrecedence})
	after, err := site.Process(labexample.Tom, "memo.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.XML, "secret") {
		t.Errorf("stale view served after policy change:\n%s", after.XML)
	}
}

// TestViewCacheInvalidatedByMembershipChange: adding a user to a group
// changes which authorizations apply — the directory generation must
// therefore invalidate cached views just like store generations do.
func TestViewCacheInvalidatedByMembershipChange(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	if err := site.Docs.AddDocument("team.xml", `<t><a>pub</a><b>secret</b></t>`); err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{
		`<<Public,*,*>,team.xml:/t,read,+,L>`,
		`<<Public,*,*>,team.xml:/t/a,read,+,L>`,
		`<<Team,*,*>,team.xml:/t/b,read,+,L>`,
	} {
		if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		res, err := site.Process(labexample.Tom, "team.xml")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(res.XML, "secret") {
			t.Fatalf("non-member sees the Team subtree:\n%s", res.XML)
		}
	}
	if hits, _ := site.CacheStats(); hits != 1 {
		t.Fatalf("baseline view not cached (hits=%d)", hits)
	}
	if err := site.Directory.AddUser("Tom", "Team"); err != nil {
		t.Fatal(err)
	}
	after, err := site.Process(labexample.Tom, "team.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.XML, "secret") {
		t.Errorf("stale view served after membership change:\n%s", after.XML)
	}
}

// genSite builds a Site over the synthetic workload so the cached and
// uncached configurations below can be compared over identical content.
func genSite(t *testing.T, cfg workload.AuthConfig) *Site {
	t.Helper()
	site := NewSite()
	site.Directory = workload.GenDirectory(cfg.Pop)
	site.Engine.Hierarchy.Dir = site.Directory
	if err := site.Docs.AddDocument(cfg.URI, workload.GenDocument(cfg.Doc).String()); err != nil {
		t.Fatal(err)
	}
	inst, _ := workload.GenAuths(cfg)
	if err := site.Auths.AddAll(authz.InstanceLevel, inst); err != nil {
		t.Fatal(err)
	}
	return site
}

// TestClassKeyedCacheDifferential is the oracle for class keying: over
// a randomized policy and population, a class-keyed cache and no cache
// at all must serve byte-identical views to every requester — including across policy mutations and
// repeat visits that exercise cache hits.
func TestClassKeyedCacheDifferential(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		cfg := workload.AuthConfig{
			N:                 24,
			Doc:               workload.DocConfig{Depth: 3, Fanout: 3, Attrs: 2, Seed: seed},
			PredicateFraction: 0.4,
			NegativeFraction:  0.4,
			Seed:              seed * 31,
		}.Norm()
		classSite := genSite(t, cfg).EnableViewCache(64)
		plainSite := genSite(t, cfg)

		check := func(round string, rq subjects.Requester) {
			t.Helper()
			want, wantErr := plainSite.Process(rq, cfg.URI)
			got, err := classSite.Process(rq, cfg.URI)
			if (err == nil) != (wantErr == nil) ||
				(err != nil && !errors.Is(err, wantErr) && err.Error() != wantErr.Error()) {
				t.Fatalf("seed %d %s: class-keyed error %v, uncached %v (rq %s)", seed, round, err, wantErr, rq)
			}
			if err == nil && got.XML != want.XML {
				t.Fatalf("seed %d %s: class-keyed cache served different bytes to %s", seed, round, rq)
			}
		}
		requesters := make([]subjects.Requester, 0, 14)
		for i := int64(0); i < 12; i++ {
			requesters = append(requesters, workload.GenRequester(cfg.Pop, seed*100+i))
		}
		// Identity edge cases ride along: anonymous and unresolved hosts.
		requesters = append(requesters,
			subjects.Requester{User: "", IP: "10.1.2.3", Host: "h1.dom1.org"},
			subjects.Requester{User: "u0", IP: "10.1.2.3"},
		)
		for _, rq := range requesters {
			check("cold", rq)
		}
		for _, rq := range requesters {
			check("warm", rq) // served from cache where enabled
		}
		// Mutate the policy identically on both sites; caches must
		// turn over, not replay.
		grant := fmt.Sprintf(`<<g0,*,*>,%s://%s,read,-,R>`, cfg.URI, workload.ElemName(2, 1))
		for _, s := range []*Site{classSite, plainSite} {
			if err := s.Auths.Add(authz.InstanceLevel, authz.MustParse(grant)); err != nil {
				t.Fatal(err)
			}
			s.Engine.SetPolicy(cfg.URI, core.Policy{Conflict: core.PermissionsTakePrecedence, Open: true})
		}
		for _, rq := range requesters {
			check("mutated", rq)
		}
		if hits, _ := classSite.CacheStats(); hits == 0 {
			t.Errorf("seed %d: class-keyed cache never hit — differential ran without exercising it", seed)
		}
	}
}

// TestViewCacheSingleflightCoalesces: a thundering herd of equivalent
// requesters behind one cold entry must compute the view exactly once —
// everyone else either waits on the in-flight computation or hits the
// fresh entry.
func TestViewCacheSingleflightCoalesces(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	const n = 16
	start := make(chan struct{})
	results := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := site.Process(labexample.Tom, labexample.DocURI)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.XML
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d received different bytes", i)
		}
	}
	hits, misses := site.CacheStats()
	coalesced := site.CacheCoalesced()
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 computation for %d equivalent requests", misses, n)
	}
	if hits+coalesced != n-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d", hits, coalesced, hits+coalesced, n-1)
	}
}

// TestDocStoreSnapshotConsistentUnderConcurrentPuts is the focused
// regression test for the check-to-use race behind cache poisoning:
// reading the document and the store generation in two separate calls
// (the pre-fix access pattern) lets a concurrent PUT land between
// them, pairing the OLD tree with the NEW generation. The documents
// here encode their own version, and each version is committed at
// exactly one generation, so any torn pair is directly observable —
// with split reads this assertion fires within a few thousand
// iterations; DocWithGeneration's single lock acquisition makes it
// impossible.
func TestDocStoreSnapshotConsistentUnderConcurrentPuts(t *testing.T) {
	s := NewDocStore()
	if err := s.AddDocument("d.xml", `<d>0</d>`); err != nil {
		t.Fatal(err)
	}
	base := s.Generation()
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 1; i <= 2000; i++ {
			if err := s.AddDocument("d.xml", fmt.Sprintf(`<d>%d</d>`, i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				sd, gen := s.DocWithGeneration("d.xml")
				v, err := strconv.Atoi(sd.Source[3:strings.Index(sd.Source, "</d>")])
				if err != nil {
					errCh <- err
					return
				}
				if uint64(v) != gen-base {
					errCh <- fmt.Errorf("snapshot paired document version %d with generation %d (want %d): poisoned-key material",
						v, gen, base+uint64(v))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentUpdateVsProcessNoStaleCache drives the full serve path
// while the document is concurrently replaced: a view of an old tree
// filed under a new generation would be served here as a version older
// than one already durably committed before the read began. The
// committed counter is advanced by the writer only after AddDocument
// returns, so `floor` is a lower bound on the store's content for any
// Process that starts afterwards. The writer holds each generation
// until a reader has served it: back-to-back PUTs would bump the
// generation before any poisoned entry could be stored (the leader's
// revalidation rejects it) or looked up, masking exactly the bug this
// test exists to catch — with split document/generation reads the
// stale-serve assertion fires reliably; the atomic snapshot makes it
// impossible. (Run under -race this also pins the snapshot
// primitives' synchronization.)
func TestConcurrentUpdateVsProcessNoStaleCache(t *testing.T) {
	// Readers spin WITHOUT yielding: pre-fix detection relies on the
	// scheduler asynchronously preempting a reader between its two
	// store reads while the writer commits; cooperative yields would
	// park every reader at its loop boundary and never in the gap.
	// Each version's handoff costs up to one timeslice per spinning
	// reader on a single core, so the reader and version counts trade
	// detection probability against wall-clock directly.
	const versions, readers = 50, 4
	site := NewSite().EnableViewCache(16)
	if err := site.Docs.AddDocument("race.xml", `<d><v>0</v></d>`); err != nil {
		t.Fatal(err)
	}
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Public,*,*>,race.xml:/d,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	rq := subjects.Requester{User: "reader", IP: "10.0.0.1", Host: "r.example.org"}
	verRe := regexp.MustCompile(`<v>(\d+)</v>`)

	var committed, observed atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	fail := func(err error) {
		failed.Store(true)
		errCh <- err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= versions && !failed.Load(); i++ {
			src := fmt.Sprintf(`<d><v>%d</v></d>`, i)
			if err := site.Docs.AddDocument("race.xml", src); err != nil {
				fail(err)
				return
			}
			committed.Store(int64(i))
			// No wait after the final commit: readers exit once committed
			// reaches it, and the final-version assertion below covers it.
			for i < versions && observed.Load() < int64(i) && !failed.Load() {
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for committed.Load() < versions && !failed.Load() {
				floor := committed.Load()
				res, err := site.Process(rq, "race.xml")
				if err != nil {
					fail(err)
					return
				}
				m := verRe.FindStringSubmatch(res.XML)
				if m == nil {
					fail(fmt.Errorf("response matches no published version:\n%s", res.XML))
					return
				}
				v, _ := strconv.Atoi(m[1])
				if int64(v) < floor {
					fail(fmt.Errorf("served version %d after version %d was committed (stale cache entry)", v, floor))
					return
				}
				for {
					o := observed.Load()
					if int64(v) <= o || observed.CompareAndSwap(o, int64(v)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if failed.Load() {
		return // the writer aborted early; the final-version check is moot
	}
	final, err := site.Process(rq, "race.xml")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("<v>%d</v>", versions); !strings.Contains(final.XML, want) {
		t.Errorf("final read does not reflect the final write: got\n%s\nwant it to contain %s", final.XML, want)
	}
}
