package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xmlsec/internal/labexample"
)

// TestShippedSiteDir loads the site/ directory shipped with the
// repository (the xmlsecd out-of-the-box configuration) and checks it
// reproduces the paper's example end to end.
func TestShippedSiteDir(t *testing.T) {
	site, err := LoadSiteDir("../../site")
	if err != nil {
		t.Fatalf("the shipped site directory must load: %v", err)
	}
	if !site.Users.Authenticate("Tom", "tom-secret") {
		t.Error("shipped credentials wrong")
	}
	res, err := site.Process(labexample.Tom, "CSlab.xml")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.XML, "Security Markup") {
		t.Errorf("shipped site leaks private papers to Tom:\n%s", res.XML)
	}
	if !strings.Contains(res.XML, "Bob Codd") {
		t.Errorf("shipped site misses the *.it manager grant:\n%s", res.XML)
	}
	sam := site.RequesterFor("Sam", "130.89.56.8")
	if sam.Host != "adminhost.lab.com" {
		t.Errorf("shipped resolver.conf not applied: %+v", sam)
	}
	res, err = site.Process(sam, "CSlab.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.XML, "Security Markup") {
		t.Errorf("shipped site should give Sam the internal project:\n%s", res.XML)
	}
}

// TestShippedSiteSecondDocument: the schema-level XACL on the shared
// DTD governs every instance — including EElab.xml, whose own XACL only
// grants public papers.
func TestShippedSiteSecondDocument(t *testing.T) {
	site, err := LoadSiteDir("../../site")
	if err != nil {
		t.Fatal(err)
	}
	res, err := site.Process(labexample.Tom, "EElab.xml")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.XML, "Patent Draft") {
		t.Errorf("schema-level denial did not carry over to the second instance:\n%s", res.XML)
	}
	if !strings.Contains(res.XML, "Beam Forming") {
		t.Errorf("public paper missing from second instance:\n%s", res.XML)
	}
}

// TestServedBodyMatchesProcess: on the shipped site, for every
// (user, document) pair, the body a GET serves equals ProcessContext's
// XML on a site without a view cache — whether the view is uncached,
// rendered by that GET, copied from a text an earlier GET rendered, or
// cached by a query that rendered nothing.
func TestServedBodyMatchesProcess(t *testing.T) {
	ref, err := LoadSiteDir("../../site")
	if err != nil {
		t.Fatal(err)
	}
	users := []struct{ name, password, ip string }{
		{"", "", "10.0.0.1"},
		{"Tom", "tom-secret", "130.100.50.8"},
		{"Sam", "sam-secret", "130.89.56.8"},
	}
	get := func(h http.Handler, path, user, password, ip string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.RemoteAddr = ip + ":4000"
		if user != "" {
			req.SetBasicAuth(user, password)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, mode := range []string{"uncached", "cached", "query first"} {
		site, err := LoadSiteDir("../../site")
		if err != nil {
			t.Fatal(err)
		}
		if mode != "uncached" {
			site.EnableViewCache(64)
		}
		h := site.Handler()
		pairs := 0
		for _, uri := range ref.Docs.URIs() {
			for _, u := range users {
				want, err := ref.ProcessContext(context.Background(), ref.RequesterFor(u.name, u.ip), uri)
				if errors.Is(err, ErrNotFound) {
					if rec := get(h, "/docs/"+uri, u.name, u.password, u.ip); rec.Code != http.StatusNotFound {
						t.Errorf("%s: %q reads %s: HTTP %d, want 404", mode, u.name, uri, rec.Code)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				pairs++
				if mode == "query first" {
					if rec := get(h, "/query/"+uri+"?q=//*", u.name, u.password, u.ip); rec.Code != http.StatusOK {
						t.Fatalf("%s: %q queries %s: HTTP %d", mode, u.name, uri, rec.Code)
					}
				}
				for round := 0; round < 2; round++ {
					rec := get(h, "/docs/"+uri, u.name, u.password, u.ip)
					if rec.Code != http.StatusOK || rec.Body.String() != want.XML {
						t.Errorf("%s: %q reads %s (round %d): HTTP %d, body\n%s\nwant\n%s", mode, u.name, uri, round, rec.Code, rec.Body.String(), want.XML)
					}
					if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want.XML)) {
						t.Errorf("%s: %q reads %s: Content-Length %s, want %d", mode, u.name, uri, cl, len(want.XML))
					}
				}
				got, err := site.ProcessContext(context.Background(), site.RequesterFor(u.name, u.ip), uri)
				if err != nil || got.XML != want.XML {
					t.Errorf("%s: ProcessContext for %q on %s = %v, body differs from the reference", mode, u.name, uri, err)
				}
			}
		}
		if pairs < 4 {
			t.Fatalf("%s: only %d readable (user, document) pairs", mode, pairs)
		}
	}
}
