package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
	"xmlsec/internal/update"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// openUpdateSite registers a synthetic workload document under an open
// policy with no authorizations, so every requester holds full read and
// write authority — the configuration the differential oracles need.
func openUpdateSite(t testing.TB, cfg workload.DocConfig, uri string) *Site {
	t.Helper()
	site := NewSite()
	if err := site.Docs.AddDocument(uri, workload.GenDocument(cfg).String()); err != nil {
		t.Fatal(err)
	}
	site.Engine.SetPolicy(uri, core.Policy{Conflict: core.DenialsTakePrecedence, Open: true})
	return site
}

func TestApplyUpdateCommits(t *testing.T) {
	site, sam := writerSite(t)
	gen0 := site.Docs.Generation()
	ctx, rc := trace.Begin(context.Background(), nil, "test", http.MethodPost, "/docs/*/update")
	defer rc.Release()
	card := &rc.Cost
	if err := site.ApplyUpdate(ctx, sam, labexample.DocURI, "replace-text //title Updated Title"); err != nil {
		t.Fatal(err)
	}
	res, err := site.Process(sam, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.XML, "Updated Title") || strings.Contains(res.XML, "XML Views") {
		t.Errorf("update not visible in Sam's view:\n%s", res.XML)
	}
	src := site.Docs.Doc(labexample.DocURI).Source
	if !strings.Contains(src, "Updated Title") {
		t.Errorf("stored source not updated:\n%s", src)
	}
	if site.Docs.Generation() == gen0 {
		t.Error("commit did not advance the store generation")
	}
	if card.OpsApplied != 1 || card.TargetsChecked == 0 || card.NodesCopied == 0 {
		t.Errorf("cost card not itemized: ops=%d targets=%d copied=%d",
			card.OpsApplied, card.TargetsChecked, card.NodesCopied)
	}
}

// TestApplyUpdateAtomicity: one failing operation fails the whole
// script; the operations before it must not commit.
func TestApplyUpdateAtomicity(t *testing.T) {
	site, sam := writerSite(t)
	before := site.Docs.Doc(labexample.DocURI).Source
	err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI,
		"replace-text //title Updated Title\ndelete //nowhere")
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("script with a dangling operation: %v, want ErrConflict", err)
	}
	if got := site.Docs.Doc(labexample.DocURI).Source; got != before {
		t.Errorf("failed script left a partial commit:\n%s", got)
	}
}

// TestApplyUpdateHiddenTargetReadsAsAbsent: a target outside the
// requester's read view resolves as a conflict ("selects nothing"),
// indistinguishable from an absent node — while the same target under
// read-but-no-write authority is a forbidden operation. The update path
// must not become an existence oracle for protected content.
func TestApplyUpdateHiddenTargetReadsAsAbsent(t *testing.T) {
	site := labSite(t)
	// Tom cannot see the fund element at all.
	err := site.ApplyUpdate(context.Background(), labexample.Tom, labexample.DocURI, "delete //fund")
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("hidden target: %v, want ErrConflict", err)
	}
	var se *ScriptError
	if !errors.As(err, &se) || len(se.Report) != 1 {
		t.Fatalf("want a one-operation report, got %v", err)
	}
	if !strings.Contains(se.Report[0].Reason, "selects nothing") {
		t.Errorf("hidden-target reason %q differs from the absent-target one", se.Report[0].Reason)
	}

	// Once Tom may read the fund, the same script turns forbidden: now
	// the node exists for him, he just may not remove it.
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Foreign,*,*>,CSlab.xml://fund,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	err = site.ApplyUpdate(context.Background(), labexample.Tom, labexample.DocURI, "delete //fund")
	if !errors.Is(err, ErrForbidden) {
		t.Errorf("readable-unwritable target: %v, want ErrForbidden", err)
	}
}

// TestApplyUpdateInvisibleDocIsNotFound mirrors the PUT path's
// information hiding: no read view means 404 semantics, not 403.
func TestApplyUpdateInvisibleDocIsNotFound(t *testing.T) {
	site, _ := writerSite(t)
	nobody := subjects.Requester{User: "stranger", IP: "9.9.9.9", Host: "out.example.org"}
	if err := site.Docs.AddDocument("vault.xml", `<vault><k>x</k></vault>`); err != nil {
		t.Fatal(err)
	}
	if err := site.ApplyUpdate(context.Background(), nobody, "vault.xml", "delete //k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("invisible doc: %v, want ErrNotFound", err)
	}
	if err := site.ApplyUpdate(context.Background(), nobody, "ghost.xml", "delete //k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown doc: %v, want ErrNotFound", err)
	}
}

// TestApplyUpdateKeepsValidity: an authorized script whose result
// violates the DTD fails with nothing committed.
func TestApplyUpdateKeepsValidity(t *testing.T) {
	site, sam := writerSite(t)
	before := site.Docs.Doc(labexample.DocURI).Source
	// laboratory requires project+; deleting every project breaks it.
	err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI, "delete //project")
	if err == nil || errors.Is(err, ErrForbidden) || errors.Is(err, ErrConflict) {
		t.Fatalf("validity-breaking script: %v, want a validity error", err)
	}
	if got := site.Docs.Doc(labexample.DocURI).Source; got != before {
		t.Errorf("invalid script left a partial commit:\n%s", got)
	}
}

func TestApplyUpdateHTTPLadder(t *testing.T) {
	site, _ := writerSite(t)
	site.Resolver.(*StaticResolver).Add("130.89.56.8", "adminhost.lab.com")
	h := site.Handler()

	// Sam commits a script: 204.
	if rec := do(t, h, http.MethodPost, "/docs/CSlab.xml/update", "Sam", "130.89.56.8",
		"replace-text //title Retitled"); rec.Code != http.StatusNoContent {
		t.Fatalf("update as Sam: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	// Tom is denied: 403 with a machine-readable per-operation report.
	rec := do(t, h, http.MethodPost, "/docs/CSlab.xml/update", "Tom", "130.100.50.8",
		"delete //manager")
	if rec.Code != http.StatusForbidden {
		t.Fatalf("update as Tom: HTTP %d, want 403: %s", rec.Code, rec.Body.String())
	}
	var rep struct {
		Error  string           `json:"error"`
		Report []update.OpError `json:"report"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.Report) == 0 {
		t.Fatalf("403 body is not a report (err %v):\n%s", err, rec.Body.String())
	}
	if rep.Report[0].Class != update.ClassForbidden {
		t.Errorf("report class = %q, want forbidden", rep.Report[0].Class)
	}

	// A script against nothing the requester can see: 409.
	if rec := do(t, h, http.MethodPost, "/docs/CSlab.xml/update", "Sam", "130.89.56.8",
		"delete //nonexistent"); rec.Code != http.StatusConflict {
		t.Errorf("dangling target: HTTP %d, want 409", rec.Code)
	}

	// A malformed script: 422.
	if rec := do(t, h, http.MethodPost, "/docs/CSlab.xml/update", "Sam", "130.89.56.8",
		"frobnicate //title"); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("malformed script: HTTP %d, want 422", rec.Code)
	}

	// POST on the bare document path: 405 (GET and PUT live there).
	if rec := do(t, h, http.MethodPost, "/docs/CSlab.xml", "Sam", "130.89.56.8",
		"delete //title"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST without /update: HTTP %d, want 405", rec.Code)
	}

	// Unknown document: 404.
	if rec := do(t, h, http.MethodPost, "/docs/ghost.xml/update", "Sam", "130.89.56.8",
		"delete //x"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown doc: HTTP %d, want 404", rec.Code)
	}

	// Bad credentials: 401.
	{
		q := httptest.NewRequest(http.MethodPost, "/docs/CSlab.xml/update",
			strings.NewReader("delete //x"))
		q.RemoteAddr = "130.89.56.8:4000"
		q.SetBasicAuth("Sam", "wrong")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, q)
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("bad credentials: HTTP %d, want 401", rec.Code)
		}
	}

	// Oversized script: 413.
	site.MaxUpdateBytes = 32
	if rec := do(t, h, http.MethodPost, "/docs/CSlab.xml/update", "Sam", "130.89.56.8",
		"replace-text //title "+strings.Repeat("x", 100)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized script: HTTP %d, want 413", rec.Code)
	}
	site.MaxUpdateBytes = 0

	// The update metric families are exposed.
	mrec := do(t, h, http.MethodGet, "/metrics", "", "130.89.56.8", "")
	for _, fam := range []string{"xmlsec_update_requests_total", "xmlsec_update_ops_total",
		"xmlsec_update_nodes_copied_total", "xmlsec_update_apply_duration_seconds"} {
		if !strings.Contains(mrec.Body.String(), fam) {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
}

// TestApplyUpdateOracleRandomScripts is the differential oracle: for a
// fully authorized requester, a targeted update and a whole-document
// write of the requester's post-edit view must commit byte-identical
// documents. Randomized scripts (the same generator the mixed
// read/write benchmark uses) exercise every operation kind.
func TestApplyUpdateOracleRandomScripts(t *testing.T) {
	cfg := workload.DocConfig{Depth: 3, Fanout: 3, Labels: 4, Attrs: 2, Seed: 11}
	rq := subjects.Requester{User: "u", IP: "1.2.3.4"}
	for seed := int64(0); seed < 15; seed++ {
		a := openUpdateSite(t, cfg, "gen.xml")
		b := openUpdateSite(t, cfg, "gen.xml")
		script := update.RandomScript(rand.New(rand.NewSource(seed)), a.Docs.Doc("gen.xml").Doc, 5)
		if script == nil {
			t.Fatalf("seed %d: generator returned no script", seed)
		}
		// Path A: the targeted update.
		if err := a.ApplyUpdate(context.Background(), rq, "gen.xml", script.Canonical()); err != nil {
			t.Fatalf("seed %d: ApplyUpdate: %v\nscript: %s", seed, err, script.Canonical())
		}
		// Path B: fetch the requester's view, apply the same script to
		// it client-side, and push the result through the whole-document
		// write. For a fully authorized requester the merge must land on
		// the identical document.
		res, err := b.Process(rq, "gen.xml")
		if err != nil {
			t.Fatalf("seed %d: Process: %v", seed, err)
		}
		parsed, err := xmlparse.Parse(res.XML, xmlparse.Options{})
		if err != nil {
			t.Fatalf("seed %d: reparsing view: %v", seed, err)
		}
		s2, err := update.ParseScript(script.Canonical())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		all := func(int32) bool { return true }
		resolved, report := update.Resolve(context.Background(), parsed.Doc, s2, all, all)
		if report != nil {
			t.Fatalf("seed %d: resolving on the view: %v", seed, report)
		}
		edited, _, err := update.Apply(parsed.Doc, s2, resolved.Targets)
		if err != nil {
			t.Fatalf("seed %d: applying on the view: %v", seed, err)
		}
		if err := b.Update(rq, "gen.xml", edited.String()); err != nil {
			t.Fatalf("seed %d: whole-document write: %v", seed, err)
		}
		got, want := a.Docs.Doc("gen.xml").Source, b.Docs.Doc("gen.xml").Source
		if got != want {
			t.Fatalf("seed %d: paths diverge\nscript: %s\n--- targeted ---\n%s\n--- merged ---\n%s",
				seed, script.Canonical(), got, want)
		}
	}
}

// TestApplyUpdateOraclePartialVisibility is the handcrafted
// partial-authority case of the oracle: Tom holds write authority over
// managers only, edits the one manager his view shows — once as a
// targeted script, once by uploading his edited view — and both paths
// must commit the identical document, with everything his view hid
// intact.
func TestApplyUpdateOraclePartialVisibility(t *testing.T) {
	mkSite := func() *Site {
		site := labSite(t)
		if err := site.GrantWrite(authz.InstanceLevel,
			`<<Foreign,*,*>,CSlab.xml://manager,write,+,R>`); err != nil {
			t.Fatal(err)
		}
		return site
	}
	a, b := mkSite(), mkSite()

	// Path A: targeted replace-text. //flname selects both managers'
	// names, but only the visible one survives the read-mask
	// intersection — Ada Turing's must stay untouched.
	if err := a.ApplyUpdate(context.Background(), labexample.Tom, labexample.DocURI,
		"replace-text //flname Carol Codd"); err != nil {
		t.Fatal(err)
	}

	// Path B: Tom fetches his view, edits it, and uploads it whole.
	res, err := b.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.XML, "Bob Codd") {
		t.Fatalf("Tom's view lacks the manager to edit:\n%s", res.XML)
	}
	if err := b.Update(labexample.Tom, labexample.DocURI,
		strings.ReplaceAll(res.XML, "Bob Codd", "Carol Codd")); err != nil {
		t.Fatal(err)
	}

	got, want := a.Docs.Doc(labexample.DocURI).Source, b.Docs.Doc(labexample.DocURI).Source
	if got != want {
		t.Fatalf("paths diverge\n--- targeted ---\n%s\n--- merged ---\n%s", got, want)
	}
	for _, hidden := range []string{"Ada Turing", "MURST", "Security Markup", "Ranking Internals"} {
		if !strings.Contains(got, hidden) {
			t.Errorf("hidden content %q lost:\n%s", hidden, got)
		}
	}
	if !strings.Contains(got, "Carol Codd") {
		t.Errorf("authorized edit not applied:\n%s", got)
	}
}

// TestApplyUpdateConcurrentWithCachedReaders runs one updating writer
// against cached readers under -race. Every read must observe exactly
// one committed generation — the serialized view must equal one of the
// documents the deterministic update chain commits, never a blend.
func TestApplyUpdateConcurrentWithCachedReaders(t *testing.T) {
	const steps = 8
	cfg := workload.DocConfig{Depth: 3, Fanout: 3, Labels: 4, Attrs: 2, Seed: 5}
	rq := subjects.Requester{User: "u", IP: "1.2.3.4"}

	// Precompute the committed chain on a twin site: one writer and a
	// deterministic generator make the sequence of sources a function of
	// the seeds alone.
	canon := func(src string) string {
		res, err := xmlparse.Parse(src, xmlparse.Options{})
		if err != nil {
			t.Fatalf("canonicalizing: %v", err)
		}
		return res.Doc.String()
	}
	scriptAt := func(site *Site, i int) *update.Script {
		return update.RandomScript(rand.New(rand.NewSource(int64(i)+100)), site.Docs.Doc("gen.xml").Doc, 3)
	}
	twin := openUpdateSite(t, cfg, "gen.xml")
	committed := map[string]bool{canon(twin.Docs.Doc("gen.xml").Source): true}
	for i := 0; i < steps; i++ {
		s := scriptAt(twin, i)
		if s == nil {
			t.Fatalf("step %d: no script", i)
		}
		if err := twin.ApplyUpdate(context.Background(), rq, "gen.xml", s.Canonical()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		committed[canon(twin.Docs.Doc("gen.xml").Source)] = true
	}

	site := openUpdateSite(t, cfg, "gen.xml").EnableViewCache(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := site.Process(rq, "gen.xml")
				if err != nil {
					t.Errorf("concurrent read: %v", err)
					return
				}
				if !committed[canon(res.XML)] {
					t.Errorf("read observed a state no update committed:\n%s", res.XML)
					return
				}
			}
		}()
	}
	for i := 0; i < steps; i++ {
		s := scriptAt(site, i)
		if err := site.ApplyUpdate(context.Background(), rq, "gen.xml", s.Canonical()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := canon(site.Docs.Doc("gen.xml").Source); got != canon(twin.Docs.Doc("gen.xml").Source) {
		t.Errorf("concurrent chain diverged from the sequential one:\n%s", got)
	}
}
