package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
)

// traceGet performs one request as Tom from his example host, keeping
// the full recorder so tests can read response headers.
func traceGet(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.RemoteAddr = labexample.Tom.IP + ":40000"
	req.SetBasicAuth("Tom", "pw-tom")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestTracePropagation pins the tentpole contract end to end: one
// GET /docs/{id} produces a trace whose span tree contains the cycle
// stages, whose ID equals the X-Request-ID response header, and whose
// ID appears in the audit record for the same decision.
func TestTracePropagation(t *testing.T) {
	site := labSite(t)
	var audit bytes.Buffer
	site.SetAuditLog(&audit)
	site.EnableTracing(trace.Options{Capacity: 8, SampleEvery: 1})
	h := site.Handler()

	w := traceGet(t, h, "/docs/"+labexample.DocURI, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /docs/ = %d: %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("response missing X-Request-ID")
	}

	// The audit record carries the same ID.
	var rec AuditRecord
	if err := json.Unmarshal(audit.Bytes(), &rec); err != nil {
		t.Fatalf("audit line: %v", err)
	}
	if rec.RequestID != id {
		t.Errorf("audit request_id = %q, want header %q", rec.RequestID, id)
	}
	if rec.Op != "read" || rec.Decision != "ok" || rec.User != "Tom" {
		t.Errorf("audit record wrong: %+v", rec)
	}

	// /debug/traces lists the trace under the same ID.
	w = traceGet(t, h, "/debug/traces", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", w.Code)
	}
	var list tracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	var summary *trace.Snapshot
	for i := range list.Recent {
		if list.Recent[i].ID == id {
			summary = &list.Recent[i]
		}
	}
	if summary == nil {
		t.Fatalf("trace %s not in /debug/traces (got %d traces)", id, len(list.Recent))
	}
	if summary.Name != "GET /docs/" {
		t.Errorf("trace name = %q", summary.Name)
	}
	// The trace's stage table is the request's cost card.
	if summary.Cost == nil {
		t.Fatal("trace summary lacks the cost card")
	}
	for _, stage := range []obs.Stage{obs.StageLabel, obs.StagePrune, obs.StageUnparse} {
		if summary.Cost.Stages[stage] <= 0 {
			t.Errorf("stage %s missing from the card's stage timings: %v", stage, summary.Cost.Stages)
		}
	}
	if summary.Spans != nil {
		t.Error("list view must omit span trees")
	}

	// The detail endpoint returns the waterfall with the cycle spans.
	w = traceGet(t, h, "/debug/traces/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d", id, w.Code)
	}
	var detail trace.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	byName := map[string]trace.SpanSnapshot{}
	for _, sp := range detail.Spans {
		byName[sp.Name] = sp
	}
	for _, stage := range []string{"label", "prune", "unparse"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("span %q missing from trace detail", stage)
		}
		if sp.Depth != 1 || sp.DurationNs <= 0 {
			t.Errorf("span %q wrong: %+v", stage, sp)
		}
	}
	if byName["label"].OffsetNs > byName["unparse"].OffsetNs {
		t.Error("label must start before unparse in the waterfall")
	}
	// Labeling on a fresh site fills the node-set index: the fills are
	// child spans of label, each holding the evaluated authorization.
	fill, ok := byName["authindex.fill"]
	if !ok {
		t.Fatal("first request must record authindex.fill spans")
	}
	if fill.Depth != 2 {
		t.Errorf("authindex.fill depth = %d, want 2 (child of label)", fill.Depth)
	}
	found := false
	for _, a := range fill.Annotations {
		if strings.Contains(a, "nodes") {
			found = true
		}
	}
	if !found {
		t.Errorf("fill span lacks its authorization annotation: %v", fill.Annotations)
	}

	// A second request for the same doc hits the warm index: no fill
	// spans, and the label span says so.
	w = traceGet(t, h, "/docs/"+labexample.DocURI, nil)
	id2 := w.Header().Get("X-Request-ID")
	w = traceGet(t, h, "/debug/traces/"+id2, nil)
	var warm trace.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	for _, sp := range warm.Spans {
		if sp.Name == "authindex.fill" {
			t.Error("warm request must not fill the node-set index")
		}
		if sp.Name == "label" {
			joined := strings.Join(sp.Annotations, "\n")
			if !strings.Contains(joined, "misses") {
				t.Errorf("label span lacks authindex effectiveness annotation: %v", sp.Annotations)
			}
		}
	}
}

func TestTraceClientRequestIDPropagation(t *testing.T) {
	site := labSite(t)
	site.EnableTracing(trace.Options{Capacity: 4, SampleEvery: 1})
	var audit bytes.Buffer
	site.SetAuditLog(&audit)
	h := site.Handler()

	w := traceGet(t, h, "/docs/"+labexample.DocURI,
		map[string]string{"X-Request-ID": "client-abc.123"})
	if got := w.Header().Get("X-Request-ID"); got != "client-abc.123" {
		t.Errorf("well-formed client ID not propagated: %q", got)
	}
	var rec AuditRecord
	if err := json.Unmarshal(audit.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.RequestID != "client-abc.123" {
		t.Errorf("audit request_id = %q", rec.RequestID)
	}
	if site.TraceRecorder().Lookup("client-abc.123") == nil {
		t.Error("trace not filed under the client's ID")
	}

	// A hostile ID (newline injection, oversized) is replaced.
	w = traceGet(t, h, "/docs/"+labexample.DocURI,
		map[string]string{"X-Request-ID": "evil\"id"})
	if got := w.Header().Get("X-Request-ID"); got == "" || strings.ContainsAny(got, "\"\n") {
		t.Errorf("hostile client ID propagated: %q", got)
	}
}

func TestTraceSamplingAndUntracedRequests(t *testing.T) {
	site := labSite(t)
	site.EnableTracing(trace.Options{Capacity: 32, SampleEvery: 4})
	h := site.Handler()
	ids := map[string]bool{}
	for i := 0; i < 8; i++ {
		w := traceGet(t, h, "/docs/"+labexample.DocURI, nil)
		id := w.Header().Get("X-Request-ID")
		if id == "" || ids[id] {
			t.Fatalf("request %d: missing or duplicate X-Request-ID %q", i, id)
		}
		ids[id] = true
	}
	_, sampled := site.TraceRecorder().Stats()
	if sampled != 2 {
		t.Errorf("SampleEvery=4 sampled %d of 8, want 2", sampled)
	}
}

// TestTraceSlowCapture pins the one slow capture: a slow sampled
// request is found through its /debug/slowz entry after the 2-deep
// recent ring has churned, and /debug/traces/{id} still serves its
// waterfall, carrying the card the board shows.
func TestTraceSlowCapture(t *testing.T) {
	site := labSite(t).EnableSlowLog(5*time.Millisecond, 8)
	site.EnableTracing(trace.Options{Capacity: 2, SampleEvery: 1})
	// Drive the request through the middleware with a handler-level
	// sleep via a slow resolver.
	site.Resolver = slowResolver{delay: 7 * time.Millisecond}
	h := site.Handler()
	slowID := traceGet(t, h, "/docs/"+labexample.DocURI, nil).Header().Get("X-Request-ID")
	site.Resolver = NewStaticResolver()
	for i := 0; i < 4; i++ { // fast traffic churns the recent ring
		traceGet(t, h, "/docs/"+labexample.DocURI, nil)
	}
	var list tracesResponse
	if err := json.Unmarshal(traceGet(t, h, "/debug/traces", nil).Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Recent {
		if s.ID == slowID {
			t.Error("slow trace should have been evicted from the 2-deep recent ring")
		}
	}

	var board slowzResponse
	if err := json.Unmarshal(traceGet(t, h, "/debug/slowz", nil).Body.Bytes(), &board); err != nil {
		t.Fatal(err)
	}
	var entry *SlowEntry
	for i := range board.Entries {
		if board.Entries[i].RequestID == slowID {
			entry = &board.Entries[i]
		}
	}
	if entry == nil {
		t.Fatalf("slow request %s not on /debug/slowz (%d entries)", slowID, len(board.Entries))
	}
	if entry.DurationNs < int64(5*time.Millisecond) || entry.Route != "/docs/" || entry.Status != http.StatusOK {
		t.Errorf("slow entry wrong: %+v", entry)
	}

	w := traceGet(t, h, "/debug/traces/"+slowID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s after ring churn = %d, want the board's trace", slowID, w.Code)
	}
	var detail trace.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range detail.Spans {
		names[sp.Name] = true
	}
	for _, stage := range []string{"label", "prune", "unparse"} {
		if !names[stage] {
			t.Errorf("waterfall of %s lacks span %q", slowID, stage)
		}
	}
	if detail.DurationNs != entry.DurationNs || detail.Cost == nil || *detail.Cost != entry.Cost {
		t.Errorf("trace %+v differs from its board entry %+v", detail, entry)
	}
}

// slowResolver delays reverse lookups to make a request slow.
type slowResolver struct{ delay time.Duration }

func (r slowResolver) Reverse(string) string {
	time.Sleep(r.delay)
	return ""
}

func TestDebugEndpointsGating(t *testing.T) {
	site := labSite(t) // tracing NOT enabled
	h := site.Handler()
	if w := traceGet(t, h, "/debug/traces", nil); w.Code != http.StatusNotFound {
		t.Errorf("/debug/traces without tracing = %d, want 404", w.Code)
	}
	if w := traceGet(t, h, "/debug/pprof/", nil); w.Code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without EnablePprof = %d, want 404", w.Code)
	}
	site.EnablePprof = true
	h = site.Handler() // handler is rebuilt; gating is a construction-time decision
	if w := traceGet(t, h, "/debug/pprof/", nil); w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ with EnablePprof = %d, want 200", w.Code)
	}
	if w := traceGet(t, h, "/debug/pprof/cmdline", nil); w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", w.Code)
	}
}

// TestRequestRecordAllocs bounds what the request record costs a read
// through the whole handler: a GET as Tom with tracing off and the slow
// board on (at its production threshold, so no request is admitted)
// must allocate no more than it does with one pooled request record,
// and with the view's text assembled in one pooled buffer rather than a
// string — 25 allocations per cached GET and 54 per uncached GET,
// request construction excluded (plus allocSlack in a race build).
func TestRequestRecordAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cached bool
		max    float64
	}{{"cached", true, 25}, {"uncached", false, 54}} {
		site := labSite(t).EnableSlowLog(250*time.Millisecond, 64)
		if tc.cached {
			site.EnableViewCache(16)
		}
		h := site.Handler()
		req := httptest.NewRequest(http.MethodGet, "/docs/"+labexample.DocURI, nil)
		req.RemoteAddr = labexample.Tom.IP + ":40000"
		req.SetBasicAuth("Tom", "pw-tom")
		get := func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s GET = %d", tc.name, w.Code)
			}
		}
		get() // warm the cache, the indexes and the record pool
		if got := testing.AllocsPerRun(200, get); got > tc.max+allocSlack {
			t.Errorf("%s GET allocates %v times, want at most %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s GET: %v allocations", tc.name, got)
		}
	}
}
