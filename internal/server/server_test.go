package server

import (
	"errors"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
)

// labSite assembles the paper's example site.
func labSite(t testing.TB) *Site {
	t.Helper()
	site := NewSite()
	site.Directory = labexample.Directory()
	site.Engine.Hierarchy.Dir = site.Directory
	if err := site.Docs.AddDTD(labexample.DTDURI, labexample.DTDSource); err != nil {
		t.Fatal(err)
	}
	if err := site.Docs.AddDocument(labexample.DocURI, labexample.DocSource); err != nil {
		t.Fatal(err)
	}
	for i, tuple := range labexample.AuthTuples {
		level := authz.InstanceLevel
		if i == 0 {
			level = authz.SchemaLevel
		}
		if err := site.Auths.Add(level, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []struct{ name, pass string }{{"Tom", "pw-tom"}, {"Sam", "pw-sam"}} {
		if err := site.Users.Set(u.name, u.pass); err != nil {
			t.Fatal(err)
		}
	}
	return site
}

func TestUserDB(t *testing.T) {
	db := NewUserDB()
	if err := db.Set("alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if !db.Authenticate("alice", "secret") {
		t.Error("correct password rejected")
	}
	if db.Authenticate("alice", "wrong") {
		t.Error("wrong password accepted")
	}
	if db.Authenticate("bob", "secret") {
		t.Error("unknown user accepted")
	}
	if err := db.Set("", "x"); err == nil {
		t.Error("empty user name should fail")
	}
	if err := db.Set("alice", "rotated"); err != nil {
		t.Fatal(err)
	}
	if db.Authenticate("alice", "secret") || !db.Authenticate("alice", "rotated") {
		t.Error("password rotation failed")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	if !db.Remove("alice") || db.Remove("alice") {
		t.Error("Remove semantics wrong")
	}
}

func TestStaticResolver(t *testing.T) {
	r := NewStaticResolver()
	if got := r.Reverse("130.100.50.8"); got != "infosys.bld1.it" {
		t.Errorf("preloaded example host missing: %q", got)
	}
	r.Add("10.0.0.1", "box.corp.example")
	if r.Reverse("10.0.0.1") != "box.corp.example" {
		t.Error("Add/Reverse failed")
	}
	if r.Reverse("9.9.9.9") != "" {
		t.Error("unknown IP should resolve to empty")
	}
}

func TestDocStore(t *testing.T) {
	s := NewDocStore()
	if err := s.AddDTD("a.dtd", `<!ELEMENT a (b*)><!ELEMENT b EMPTY>`); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("doc.xml", `<!DOCTYPE a SYSTEM "a.dtd"><a><b/></a>`); err != nil {
		t.Fatal(err)
	}
	sd := s.Doc("doc.xml")
	if sd == nil || sd.DTDURI != "a.dtd" || sd.DTD == nil {
		t.Fatalf("stored doc wrong: %+v", sd)
	}
	if s.Doc("nope.xml") != nil {
		t.Error("unknown doc should be nil")
	}
	if s.DTD("a.dtd") == nil {
		t.Error("DTD lookup failed")
	}
	if _, ok := s.DTDSource("a.dtd"); !ok {
		t.Error("DTDSource lookup failed")
	}
	loose := s.Loosened("a.dtd")
	if loose == nil || !loose.IsLoose() {
		t.Error("Loosened wrong")
	}
	if s.Loosened("a.dtd") != loose {
		t.Error("Loosened should be cached")
	}
	if s.Loosened("nope.dtd") != nil {
		t.Error("unknown DTD should loosen to nil")
	}
	if got := s.URIs(); len(got) != 1 || got[0] != "doc.xml" {
		t.Errorf("URIs = %v", got)
	}
}

func TestDocStoreRejectsInvalid(t *testing.T) {
	s := NewDocStore()
	if err := s.AddDTD("a.dtd", `<!ELEMENT a EMPTY>`); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("bad.xml", `<!DOCTYPE a SYSTEM "a.dtd"><a><x/></a>`); err == nil {
		t.Error("invalid document should be rejected at registration")
	}
	if err := s.AddDocument("malformed.xml", `<a>`); err == nil {
		t.Error("malformed document should be rejected")
	}
	if err := s.AddDocument("unknown-dtd.xml", `<!DOCTYPE a SYSTEM "ghost.dtd"><a/>`); err == nil {
		t.Error("reference to unregistered DTD should be rejected")
	}
	if err := s.AddDTD("bad.dtd", `<!ELEMENT`); err == nil {
		t.Error("malformed DTD should be rejected")
	}
}

func TestProcessTomView(t *testing.T) {
	site := labSite(t)
	res, err := site.Process(labexample.Tom, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.XML, "<flname>Bob Codd</flname>") {
		t.Errorf("Tom should see the public project's manager:\n%s", res.XML)
	}
	if strings.Contains(res.XML, "Security Markup") || strings.Contains(res.XML, "Ranking Internals") {
		t.Errorf("private papers leaked:\n%s", res.XML)
	}
	if !strings.Contains(res.XML, `<!DOCTYPE laboratory SYSTEM "laboratory.xml">`) {
		t.Errorf("view should reference its DTD:\n%s", res.XML)
	}
	if res.DTDURI != labexample.DTDURI {
		t.Errorf("DTDURI = %q", res.DTDURI)
	}
}

func TestProcessUnknownAndEmptyAreNotFound(t *testing.T) {
	site := labSite(t)
	if _, err := site.Process(labexample.Tom, "ghost.xml"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown document: %v", err)
	}
	// A document nobody granted anything on yields an empty view →
	// ErrNotFound, indistinguishable from absent.
	if err := site.Docs.AddDocument("silent.xml", `<secret><data>x</data></secret>`); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Process(labexample.Tom, "silent.xml"); !errors.Is(err, ErrNotFound) {
		t.Errorf("fully protected document: %v", err)
	}
}

func TestRequesterFor(t *testing.T) {
	site := labSite(t)
	rq := site.RequesterFor("Tom", "130.100.50.8")
	if rq.Host != "infosys.bld1.it" || rq.User != "Tom" {
		t.Errorf("requester = %+v", rq)
	}
	rq = site.RequesterFor("", "1.2.3.4")
	if rq.User != "anonymous" || rq.Host != "" {
		t.Errorf("anonymous requester = %+v", rq)
	}
}

func TestLoadXACL(t *testing.T) {
	site := labSite(t)
	x := &authz.XACL{About: "CSlab.xml", Auths: []*authz.Authorization{
		authz.MustParse(`<<Public,*,*>,CSlab.xml://fund,read,-,R>`),
	}}
	if _, err := site.LoadXACL(x.String()); err != nil {
		t.Fatal(err)
	}
	if got := len(site.Auths.ForDocument("CSlab.xml")); got != 4 {
		t.Errorf("instance auths after LoadXACL = %d, want 4", got)
	}
	if _, err := site.LoadXACL("<notxacl/>"); err == nil {
		t.Error("bad XACL should fail")
	}
}
