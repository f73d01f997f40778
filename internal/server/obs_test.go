package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
)

// getID is get plus the response's X-Request-ID header.
func getID(t *testing.T, h http.Handler, path, user, pass, from string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if from != "" {
		req.RemoteAddr = from + ":40000"
	}
	if user != "" {
		req.SetBasicAuth(user, pass)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header().Get("X-Request-ID")
}

// slowEntryFor finds the slow-log entry of one request by its ID.
func slowEntryFor(t *testing.T, site *Site, id string) SlowEntry {
	t.Helper()
	for _, e := range site.SlowLog() {
		if e.RequestID == id {
			return e
		}
	}
	t.Fatalf("request %s not on the slow-log board", id)
	return SlowEntry{}
}

// TestCostCardExactCounts drives the fixture document through
// cold → warm → invalidated serves and checks the cards' counters
// exactly where the pipeline makes them deterministic.
func TestCostCardExactCounts(t *testing.T) {
	site := labSite(t).EnableViewCache(16).EnableSlowLog(0, 32)
	h := site.Handler()
	docNodes := int64(site.Docs.Doc(labexample.DocURI).Doc.CountNodes())
	if docNodes == 0 {
		t.Fatal("fixture document has no nodes")
	}

	// Cold: the full cycle runs — labeling touches every node, the
	// sweep visits every node, the view cache misses, the node-set
	// index fills.
	code, body, coldID := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusOK {
		t.Fatalf("cold serve: HTTP %d: %s", code, body)
	}
	cold := slowEntryFor(t, site, coldID).Cost
	if cold.NodesLabeled != docNodes {
		t.Errorf("cold NodesLabeled = %d, want %d", cold.NodesLabeled, docNodes)
	}
	if cold.NodesSwept != docNodes {
		t.Errorf("cold NodesSwept = %d, want %d", cold.NodesSwept, docNodes)
	}
	if cold.NodesKept <= 0 || cold.NodesKept > docNodes {
		t.Errorf("cold NodesKept = %d, want within (0, %d]", cold.NodesKept, docNodes)
	}
	if cold.ViewCacheMisses != 1 || cold.ViewCacheHits != 0 || cold.ViewCacheCoalesced != 0 {
		t.Errorf("cold cache outcome = %d miss / %d hit / %d coalesced, want 1/0/0",
			cold.ViewCacheMisses, cold.ViewCacheHits, cold.ViewCacheCoalesced)
	}
	if cold.AuthIndexHits != 0 {
		t.Errorf("cold AuthIndexHits = %d, want 0", cold.AuthIndexHits)
	}
	if cold.AuthIndexMisses == 0 || cold.AuthIndexFills != cold.AuthIndexMisses {
		t.Errorf("cold AuthIndex misses/fills = %d/%d, want equal and nonzero",
			cold.AuthIndexMisses, cold.AuthIndexFills)
	}
	if cold.BytesSerialized != int64(len(body)) {
		t.Errorf("cold BytesSerialized = %d, want %d (response size)",
			cold.BytesSerialized, len(body))
	}
	if cold.Class < 0 {
		t.Errorf("cold Class = %d, want a resolved class", cold.Class)
	}
	if cold.ClassMemoHits != 0 {
		t.Errorf("cold ClassMemoHits = %d, want 0 (first classification)", cold.ClassMemoHits)
	}
	if cold.ClassRebuilds != 1 {
		t.Errorf("cold ClassRebuilds = %d, want 1 (first request builds the universe)", cold.ClassRebuilds)
	}

	// Warm: the cache answers; no cycle, no labeling, no serialization.
	code, _, warmID := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusOK {
		t.Fatalf("warm serve: HTTP %d", code)
	}
	warm := slowEntryFor(t, site, warmID).Cost
	if warm.ViewCacheHits != 1 || warm.ViewCacheMisses != 0 {
		t.Errorf("warm cache outcome = %d hit / %d miss, want 1/0", warm.ViewCacheHits, warm.ViewCacheMisses)
	}
	if warm.NodesLabeled != 0 || warm.NodesSwept != 0 || warm.BytesSerialized != 0 {
		t.Errorf("warm card did work: labeled=%d swept=%d bytes=%d, want all 0",
			warm.NodesLabeled, warm.NodesSwept, warm.BytesSerialized)
	}
	if warm.ClassMemoHits != 1 {
		t.Errorf("warm ClassMemoHits = %d, want 1 (memoized requester)", warm.ClassMemoHits)
	}
	if warm.Class != cold.Class {
		t.Errorf("class changed across serves: %d then %d", cold.Class, warm.Class)
	}

	// Invalidated: a policy change bumps the generations; the next
	// serve misses, relabels everything, and pays the class-universe
	// rebuild.
	if err := site.Auths.Add(authz.InstanceLevel,
		authz.MustParse(`<<Foreign,*,*>,CSlab.xml://manager,read,-,R>`)); err != nil {
		t.Fatal(err)
	}
	code, _, invID := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusOK {
		t.Fatalf("invalidated serve: HTTP %d", code)
	}
	inv := slowEntryFor(t, site, invID).Cost
	if inv.ViewCacheMisses != 1 || inv.ViewCacheHits != 0 {
		t.Errorf("invalidated cache outcome = %d miss / %d hit, want 1/0",
			inv.ViewCacheMisses, inv.ViewCacheHits)
	}
	if inv.NodesLabeled != docNodes {
		t.Errorf("invalidated NodesLabeled = %d, want %d", inv.NodesLabeled, docNodes)
	}
	if inv.ClassRebuilds != 1 {
		t.Errorf("invalidated ClassRebuilds = %d, want 1 (generation change)", inv.ClassRebuilds)
	}
	if inv.AuthIndexFills == 0 {
		t.Error("invalidated serve should refill the node-set index")
	}
}

// TestSlowRequestEndToEnd is the acceptance path: one request's ID
// joins the response header, the slow-log entry (with a nonzero cost
// card), the audit record, and the structured log line.
func TestSlowRequestEndToEnd(t *testing.T) {
	site := labSite(t).EnableViewCache(16).EnableSlowLog(0, 8)
	var auditBuf, logBuf bytes.Buffer
	site.SetAuditLog(&auditBuf)
	site.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := site.Handler()

	code, _, id := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}

	// /debug/slowz holds the card, keyed by the same ID.
	e := slowEntryFor(t, site, id)
	if e.Cost.NodesLabeled == 0 || e.Cost.ViewCacheMisses == 0 || e.Cost.AuthIndexFills == 0 {
		t.Errorf("slow-log card not itemized: %+v", e.Cost)
	}
	code, slowzBody, _ := getID(t, h, "/debug/slowz", "", "", "10.0.0.1")
	if code != http.StatusOK || !strings.Contains(slowzBody, id) {
		t.Errorf("/debug/slowz (HTTP %d) does not show request %s", code, id)
	}

	// The audit record carries the ID and the same card.
	var rec AuditRecord
	if err := json.Unmarshal(firstLine(t, auditBuf.String()), &rec); err != nil {
		t.Fatalf("audit record: %v", err)
	}
	if rec.RequestID != id {
		t.Errorf("audit RequestID = %q, want %q", rec.RequestID, id)
	}
	if rec.Cost == nil || rec.Cost.NodesLabeled != e.Cost.NodesLabeled {
		t.Errorf("audit cost card missing or diverged: %+v", rec.Cost)
	}

	// The structured log line (slow-request Warn) carries the ID too.
	if !strings.Contains(logBuf.String(), id) {
		t.Errorf("structured log does not mention request %s:\n%s", id, logBuf.String())
	}
}

func firstLine(t *testing.T, s string) []byte {
	t.Helper()
	i := strings.IndexByte(s, '\n')
	if i < 0 {
		t.Fatalf("no complete line in %q", s)
	}
	return []byte(s[:i])
}

// TestCostCardConcurrentIsolation hammers the handler from many
// goroutines; under -race this proves cards are never shared between
// requests, and the per-card invariants prove no increments leak
// across requests even without the race detector.
func TestCostCardConcurrentIsolation(t *testing.T) {
	site := labSite(t).EnableViewCache(16).EnableSlowLog(0, 1024)
	h := site.Handler()
	const workers = 16
	const perWorker = 8
	var wg sync.WaitGroup
	ids := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest(http.MethodGet, "/docs/"+labexample.DocURI, nil)
				req.RemoteAddr = "130.100.50.8:40000"
				req.SetBasicAuth("Tom", "pw-tom")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("HTTP %d", rec.Code)
					return
				}
				ids[w] = append(ids[w], rec.Header().Get("X-Request-ID"))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, worker := range ids {
		for _, id := range worker {
			if seen[id] {
				t.Fatalf("request ID %s issued twice", id)
			}
			seen[id] = true
		}
	}
	for _, e := range site.SlowLog() {
		c := e.Cost
		// Exactly one cache outcome per request — a torn or shared card
		// would double-count.
		if n := c.ViewCacheHits + c.ViewCacheMisses + c.ViewCacheCoalesced; n != 1 {
			t.Errorf("request %s has %d cache outcomes, want exactly 1 (%+v)", e.RequestID, n, c)
		}
		if c.ViewCacheHits == 1 && (c.NodesLabeled != 0 || c.BytesSerialized != 0) {
			t.Errorf("cache-hit request %s charged cycle work: %+v", e.RequestID, c)
		}
	}
}

// TestDebugGroupGating checks the 401/403/200 ladder on /statz and the
// inspectors when DebugGroup is set, and the open default otherwise.
func TestDebugGroupGating(t *testing.T) {
	site := labSite(t).EnableViewCache(16).EnableSlowLog(0, 8)
	h := site.Handler()
	// Open by default.
	if code, _, _ := getID(t, h, "/statz", "", "", "10.0.0.1"); code != http.StatusOK {
		t.Fatalf("/statz open default: HTTP %d", code)
	}

	site.DebugGroup = "Admin"
	paths := []string{"/statz", "/debug/slowz", "/debug/cachez", "/debug/authindexz", "/debug/classz"}
	for _, p := range paths {
		if code, _, _ := getID(t, h, p, "", "", "10.0.0.1"); code != http.StatusUnauthorized {
			t.Errorf("%s anonymous: HTTP %d, want 401", p, code)
		}
		if code, _, _ := getID(t, h, p, "Tom", "pw-tom", "10.0.0.1"); code != http.StatusForbidden {
			t.Errorf("%s non-member: HTTP %d, want 403", p, code)
		}
		if code, _, _ := getID(t, h, p, "Sam", "pw-sam", "10.0.0.1"); code != http.StatusOK {
			t.Errorf("%s member: HTTP %d, want 200", p, code)
		}
	}
	// /metrics and the data/probe routes stay ungated.
	for _, p := range []string{"/metrics", "/healthz", "/readyz"} {
		if code, _, _ := getID(t, h, p, "", "", "10.0.0.1"); code != http.StatusOK {
			t.Errorf("%s under DebugGroup: HTTP %d, want 200 (never gated)", p, code)
		}
	}
}

// TestReadiness checks /readyz semantics and the 503 gate on stateful
// routes during recovery.
func TestReadiness(t *testing.T) {
	site := labSite(t)
	h := site.Handler()
	if code, _, _ := getID(t, h, "/readyz", "", "", "10.0.0.1"); code != http.StatusOK {
		t.Fatalf("/readyz on a ready site: HTTP %d", code)
	}
	site.SetReady(false)
	if code, _, _ := getID(t, h, "/readyz", "", "", "10.0.0.1"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while recovering: HTTP %d, want 503", code)
	}
	if code, _, _ := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8"); code != http.StatusServiceUnavailable {
		t.Errorf("/docs/ while recovering: HTTP %d, want 503", code)
	}
	// Liveness and introspection stay reachable during recovery.
	if code, _, _ := getID(t, h, "/healthz", "", "", "10.0.0.1"); code != http.StatusOK {
		t.Errorf("/healthz while recovering: HTTP %d, want 200", code)
	}
	if code, _, _ := getID(t, h, "/statz", "", "", "10.0.0.1"); code != http.StatusOK {
		t.Errorf("/statz while recovering: HTTP %d, want 200", code)
	}
	site.SetReady(true)
	if code, _, _ := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK {
		t.Errorf("/docs/ after recovery: HTTP %d, want 200", code)
	}
}

// TestRouteLabels pins the route bucketing for every endpoint so the
// per-route metric labels stay low-cardinality.
func TestRouteLabels(t *testing.T) {
	cases := map[string]string{
		"/docs/a.xml":       "/docs/",
		"/query/a.xml":      "/query/",
		"/dtds/a.dtd":       "/dtds/",
		"/admin/xacl":       "/admin/",
		"/debug/pprof/heap": "/debug/pprof/",
		"/debug/traces":     "/debug/traces",
		"/debug/traces/abc": "/debug/traces",
		"/debug/slowz":      "/debug/slowz",
		"/debug/cachez":     "/debug/cachez",
		"/debug/authindexz": "/debug/authindexz",
		"/debug/classz":     "/debug/classz",
		"/debug/walz":       "/debug/walz",
		"/healthz":          "/healthz",
		"/readyz":           "/readyz",
		"/metrics":          "/metrics",
		"/statz":            "/statz",
		"/debug/slowz/evil": "other",
		"/whatever/../../x": "other",
	}
	for path, want := range cases {
		if got := routeOf(path); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestInspectorsDisabled404 pins the 404 posture of inspectors whose
// subsystems are off.
func TestInspectorsDisabled404(t *testing.T) {
	site := labSite(t) // no cache, no slow log, no WAL
	h := site.Handler()
	for _, p := range []string{"/debug/slowz", "/debug/cachez", "/debug/classz", "/debug/walz"} {
		if code, _, _ := getID(t, h, p, "", "", "10.0.0.1"); code != http.StatusNotFound {
			t.Errorf("%s with subsystem disabled: HTTP %d, want 404", p, code)
		}
	}
}

// TestInspectorContents smoke-checks each inspector's payload shape
// against live state.
func TestInspectorContents(t *testing.T) {
	site := labSite(t).EnableViewCache(16).EnableSlowLog(0, 8)
	h := site.Handler()
	if code, _, _ := getID(t, h, "/docs/"+labexample.DocURI, "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK {
		t.Fatalf("seed request failed")
	}

	code, body, _ := getID(t, h, "/debug/cachez", "", "", "10.0.0.1")
	if code != http.StatusOK {
		t.Fatalf("/debug/cachez: HTTP %d", code)
	}
	var cz cachezResponse
	if err := json.Unmarshal([]byte(body), &cz); err != nil {
		t.Fatal(err)
	}
	if len(cz.Entries) != 1 || cz.Entries[0].URI != labexample.DocURI || cz.Entries[0].Bytes == 0 {
		t.Errorf("cachez entries = %+v, want one %s entry with bytes", cz.Entries, labexample.DocURI)
	}
	if cz.Generations != currentGenerations(site) || len(cz.Entries) != 1 || cz.Bytes != cz.Entries[0].Bytes {
		t.Errorf("cachez generations %+v, bytes %d: want the site's %+v and the entries' total",
			cz.Generations, cz.Bytes, currentGenerations(site))
	}

	code, body, _ = getID(t, h, "/debug/authindexz", "", "", "10.0.0.1")
	if code != http.StatusOK {
		t.Fatalf("/debug/authindexz: HTTP %d", code)
	}
	var az authindexzResponse
	if err := json.Unmarshal([]byte(body), &az); err != nil {
		t.Fatal(err)
	}
	if len(az.Documents) != 1 || az.Documents[0].URI != labexample.DocURI || az.Documents[0].Sets == 0 {
		t.Errorf("authindexz documents = %+v, want one %s entry with sets", az.Documents, labexample.DocURI)
	}

	code, body, _ = getID(t, h, "/debug/classz", "", "", "10.0.0.1")
	if code != http.StatusOK {
		t.Fatalf("/debug/classz: HTTP %d", code)
	}
	if !strings.Contains(body, `"universe"`) || !strings.Contains(body, `"classes"`) {
		t.Errorf("classz payload missing fields:\n%s", body)
	}
}
