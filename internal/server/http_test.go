package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/workload"
)

// get performs a request against the site's handler with optional
// credentials and a simulated client IP.
func get(t *testing.T, h http.Handler, path, user, pass, from string) (int, string) {
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
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(b)
}

func TestHTTPDocumentViews(t *testing.T) {
	site := labSite(t)
	h := site.Handler()

	// Tom from the example host: the Figure 3 view.
	code, body := get(t, h, "/docs/CSlab.xml", "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusOK {
		t.Fatalf("Tom: HTTP %d: %s", code, body)
	}
	if strings.Contains(body, "Security Markup") {
		t.Errorf("private paper leaked to Tom:\n%s", body)
	}
	if !strings.Contains(body, "Crawling the Web") {
		t.Errorf("public paper missing for Tom:\n%s", body)
	}

	// Sam from the Admin host sees the internal project.
	site.Resolver.(*StaticResolver).Add("130.89.56.8", "adminhost.lab.com")
	code, body = get(t, h, "/docs/CSlab.xml", "Sam", "pw-sam", "130.89.56.8")
	if code != http.StatusOK || !strings.Contains(body, "Security Markup") {
		t.Errorf("Sam (HTTP %d) should see the internal project:\n%s", code, body)
	}

	// Same user from elsewhere loses the location-dependent grant.
	code, body = get(t, h, "/docs/CSlab.xml", "Sam", "pw-sam", "200.9.9.9")
	if code != http.StatusOK || strings.Contains(body, "Security Markup") {
		t.Errorf("Sam off-host (HTTP %d) should lose the internal project:\n%s", code, body)
	}
}

func TestHTTPAuthentication(t *testing.T) {
	site := labSite(t)
	h := site.Handler()
	code, _ := get(t, h, "/docs/CSlab.xml", "Tom", "wrong-pw", "130.100.50.8")
	if code != http.StatusUnauthorized {
		t.Errorf("bad credentials: HTTP %d, want 401", code)
	}
	// No credentials: anonymous, still gets the public view.
	code, body := get(t, h, "/docs/CSlab.xml", "", "", "200.1.2.3")
	if code != http.StatusOK {
		t.Fatalf("anonymous: HTTP %d", code)
	}
	if strings.Contains(body, "Ada Turing") || !strings.Contains(body, "XML Views") {
		t.Errorf("anonymous view wrong:\n%s", body)
	}
}

func TestHTTPNotFound(t *testing.T) {
	site := labSite(t)
	h := site.Handler()
	code, _ := get(t, h, "/docs/ghost.xml", "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusNotFound {
		t.Errorf("unknown doc: HTTP %d, want 404", code)
	}
	// A fully protected document is indistinguishable from an absent
	// one.
	if err := site.Docs.AddDocument("vault.xml", `<vault><k>s3cr3t</k></vault>`); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, h, "/docs/vault.xml", "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusNotFound {
		t.Errorf("fully protected doc: HTTP %d, want 404", code)
	}
	if strings.Contains(body, "s3cr3t") {
		t.Error("protected content leaked in 404 body")
	}
}

func TestHTTPLoosenedDTD(t *testing.T) {
	site := labSite(t)
	h := site.Handler()
	code, body := get(t, h, "/dtds/laboratory.xml", "", "", "1.2.3.4")
	if code != http.StatusOK {
		t.Fatalf("dtd: HTTP %d", code)
	}
	if !strings.Contains(body, "#IMPLIED") || strings.Contains(body, "#REQUIRED") {
		t.Errorf("served DTD is not loosened:\n%s", body)
	}
	code, _ = get(t, h, "/dtds/nope.dtd", "", "", "1.2.3.4")
	if code != http.StatusNotFound {
		t.Errorf("unknown dtd: HTTP %d", code)
	}
}

func TestHTTPForwardedFor(t *testing.T) {
	site := labSite(t)
	site.Resolver.(*StaticResolver).Add("130.89.56.8", "adminhost.lab.com")
	h := site.Handler()

	req := httptest.NewRequest(http.MethodGet, "/docs/CSlab.xml", nil)
	req.RemoteAddr = "127.0.0.1:1234"
	req.Header.Set("X-Forwarded-For", "130.89.56.8, 10.0.0.1")
	req.SetBasicAuth("Sam", "pw-sam")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	// Without trust, the header is ignored: Sam appears to come from
	// 127.0.0.1 and loses the internal project.
	if strings.Contains(body, "Security Markup") {
		t.Errorf("X-Forwarded-For honored without TrustForwardedFor:\n%s", body)
	}

	site.TrustForwardedFor = true
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body = rec.Body.String()
	if !strings.Contains(body, "Security Markup") {
		t.Errorf("trusted X-Forwarded-For should grant the internal project:\n%s", body)
	}
}

// TestHTTPForwardedForInvalid pins the X-Forwarded-For validation: a
// value that is not an IP address must not flow into location-pattern
// matching; the connection's peer address is used instead.
func TestHTTPForwardedForInvalid(t *testing.T) {
	site := labSite(t)
	site.TrustForwardedFor = true
	site.Resolver.(*StaticResolver).Add("130.89.56.8", "adminhost.lab.com")
	h := site.Handler()

	// Garbage header, connection from the admin host: the fallback to
	// the peer address must keep Sam's location-dependent grant.
	req := httptest.NewRequest(http.MethodGet, "/docs/CSlab.xml", nil)
	req.RemoteAddr = "130.89.56.8:40000"
	req.Header.Set("X-Forwarded-For", `not-an-ip" OR 1=1`)
	req.SetBasicAuth("Sam", "pw-sam")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("garbage XFF: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "Security Markup") {
		t.Errorf("garbage XFF should fall back to the peer address (grant kept):\n%s", rec.Body.String())
	}

	// Garbage header, connection from elsewhere: no grant, and no
	// internal error from pattern-matching a non-address.
	req = httptest.NewRequest(http.MethodGet, "/docs/CSlab.xml", nil)
	req.RemoteAddr = "200.9.9.9:40000"
	req.Header.Set("X-Forwarded-For", "adminhost.lab.com")
	req.SetBasicAuth("Sam", "pw-sam")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "Security Markup") {
		t.Errorf("spoofed XFF hostname: HTTP %d, grant leaked=%v",
			rec.Code, strings.Contains(rec.Body.String(), "Security Markup"))
	}
}

// TestHTTPUpdateTooLarge pins the 413 on oversized PUT bodies: before
// the fix, io.LimitReader silently truncated the body at the limit and
// the document was parsed as a corrupt prefix.
func TestHTTPUpdateTooLarge(t *testing.T) {
	site := labSite(t)
	site.MaxUpdateBytes = 1024
	h := site.Handler()

	big := "<laboratory>" + strings.Repeat("<x/>", 1024) + "</laboratory>"
	req := httptest.NewRequest(http.MethodPut, "/docs/CSlab.xml", strings.NewReader(big))
	req.RemoteAddr = "130.89.56.8:40000"
	req.SetBasicAuth("Sam", "pw-sam")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT: HTTP %d, want 413: %s", rec.Code, rec.Body.String())
	}

	// A body within the limit still reaches the normal update path.
	req = httptest.NewRequest(http.MethodPut, "/docs/CSlab.xml", strings.NewReader("<laboratory/>"))
	req.RemoteAddr = "130.89.56.8:40000"
	req.SetBasicAuth("Sam", "pw-sam")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusRequestEntityTooLarge {
		t.Errorf("small PUT should not hit the size limit: HTTP %d", rec.Code)
	}
}

// TestHTTPUpdateTooDeep pins the nesting bound on PUT bodies: a 14 MB
// body of two million nested elements fits the size limit, and before
// xmlparse.MaxDepth it overflowed the parser's stack and killed the
// process. It is a 422 now, and the site keeps serving.
func TestHTTPUpdateTooDeep(t *testing.T) {
	site := labSite(t)
	h := site.Handler()
	const levels = 2_000_000
	body := strings.Repeat("<a>", levels) + strings.Repeat("</a>", levels)
	req := httptest.NewRequest(http.MethodPut, "/docs/CSlab.xml", strings.NewReader(body))
	req.RemoteAddr = "130.100.50.8:40000"
	req.SetBasicAuth("Tom", "pw-tom")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "nesting exceeds") {
		t.Errorf("2M-level PUT: HTTP %d %.200q, want 422 naming the depth bound", rec.Code, rec.Body.String())
	}
	if code, _ := get(t, h, "/docs/CSlab.xml", "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK {
		t.Errorf("GET after the deep PUT: HTTP %d, want 200", code)
	}
}

// TestHTTPQueryErrors pins the query error mapping: malformed XPath and
// expressions that cannot select nodes (count(), string(), arithmetic)
// are 400 with the compiler's message, an evaluation over its node-visit
// budget is 422, a cancelled request is 503, and anything else is a
// generic 500 that leaks no internal detail.
func TestHTTPQueryErrors(t *testing.T) {
	site := labSite(t)
	var big strings.Builder
	big.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		big.WriteString(`<e a="1">t</e>`)
	}
	big.WriteString("</r>")
	if err := site.Docs.AddDocument("big.xml", big.String()); err != nil {
		t.Fatal(err)
	}
	if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(`<<Public,*,*>,big.xml:/r,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	h := site.Handler()

	code, body := get(t, h, "/query/CSlab.xml?q=%2F%2F%2F", "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusBadRequest {
		t.Errorf("bad XPath: HTTP %d, want 400: %s", code, body)
	}
	if !strings.Contains(body, "xpath") {
		t.Errorf("400 should carry the syntax error: %q", body)
	}

	for _, q := range []string{"count(//*)", "string(//title)", "1+1"} {
		code, body := get(t, h, "/query/CSlab.xml?q="+url.QueryEscape(q), "Tom", "pw-tom", "130.100.50.8")
		if code != http.StatusBadRequest || !strings.Contains(body, "not a node-set") {
			t.Errorf("%s: HTTP %d %q, want 400 naming the type error", q, code, body)
		}
	}

	code, body = get(t, h, "/query/big.xml?q="+url.QueryEscape("//*[count(//*) > 0]"), "Tom", "pw-tom", "130.100.50.8")
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "budget") {
		t.Errorf("quadratic query: HTTP %d %q, want 422 naming the budget", code, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/query/CSlab.xml?q=//title", nil).WithContext(ctx)
	req.RemoteAddr = "130.100.50.8:40000"
	req.SetBasicAuth("Tom", "pw-tom")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled query: HTTP %d, want 503: %s", rec.Code, rec.Body.String())
	}

	// An unparseable peer address makes the requester's subject triple
	// invalid deep inside the engine — an internal failure, not a
	// client error, and its detail must not reach the response.
	req = httptest.NewRequest(http.MethodGet, "/query/CSlab.xml?q=//title", nil)
	req.RemoteAddr = "bogus-peer"
	req.SetBasicAuth("Tom", "pw-tom")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("internal query error: HTTP %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); strings.Contains(body, "subjects:") || strings.Contains(body, "bogus-peer") {
		t.Errorf("500 body leaks internal detail: %q", body)
	}
}

// TestHTTPQueryResultBound pins the bound on query answers: //* over a
// 3,000-deep chain selects 3,000 nested elements, whose copies would
// total about 4.5 million nodes. The answer is refused with 422 before
// anything is copied, while a query selecting the same chain once is
// served.
func TestHTTPQueryResultBound(t *testing.T) {
	// The first query caches the view, so the refused one below runs
	// only the evaluation and the bound check.
	site := labSite(t).EnableViewCache(16)
	const depth = 3000
	src := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	if err := site.Docs.AddDocument("chain.xml", src); err != nil {
		t.Fatal(err)
	}
	if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(`<<Public,*,*>,chain.xml:/a,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	h := site.Handler()
	if code, body := get(t, h, "/query/chain.xml?q=/a", "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK ||
		strings.Count(body, "<a") != depth {
		t.Fatalf("/a over the chain: HTTP %d with %d elements, want 200 with %d", code, strings.Count(body, "<a"), depth)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, body := get(t, h, "/query/chain.xml?q="+url.QueryEscape("//*"), "Tom", "pw-tom", "130.100.50.8")
	runtime.ReadMemStats(&after)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "result exceeds") {
		t.Errorf("//* over the chain: HTTP %d %q, want 422 naming the result budget", code, body)
	}
	// The evaluation allocates well under a megabyte here; copying the
	// answer would allocate hundreds.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("refused query allocated %d bytes: the answer was materialized", alloc)
	}
}

func TestHTTPHealthz(t *testing.T) {
	site := labSite(t)
	code, body := get(t, site.Handler(), "/healthz", "", "", "1.1.1.1")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	site := labSite(t)
	req := httptest.NewRequest(http.MethodPost, "/docs/CSlab.xml", nil)
	rec := httptest.NewRecorder()
	site.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: HTTP %d, want 405", rec.Code)
	}
}

// TestDocResponseHasContentLength pins how a view goes out on the wire,
// for the miss that computes it and the hit that reuses it: with a
// Content-Length equal to the body, so the response is not chunked. The
// view is larger than the server's chunking threshold (2 KB), below
// which net/http sets the length itself.
func TestDocResponseHasContentLength(t *testing.T) {
	site := openUpdateSite(t, workload.DocConfig{Depth: 3, Fanout: 5, Attrs: 2, Seed: 1}, "big.xml").
		EnableViewCache(16)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()
	for _, round := range []string{"miss", "hit"} {
		resp, err := srv.Client().Get(srv.URL + "/docs/big.xml")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) <= 2048 {
			t.Fatalf("%s: HTTP %d with %d bytes, want a view over 2 KB", round, resp.StatusCode, len(body))
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q, body %d bytes", round, got, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v, want none", round, resp.TransferEncoding)
		}
	}
	if hits, misses := site.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache outcome %d hits / %d misses, want 1/1", hits, misses)
	}
}
