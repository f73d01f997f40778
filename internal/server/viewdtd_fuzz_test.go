package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// strictDTD is the tightest DTD the documents of workload.GenDocument
// are valid against: each element's children are the exact sequence
// every element of its level has, and every attribute is required. A
// view that prunes anything violates it, so only loosening (Section 6.2)
// lets views validate.
func strictDTD(cfg workload.DocConfig) string {
	cfg = cfg.Norm()
	var b strings.Builder
	seq := func(level int) string {
		names := make([]string, cfg.Fanout)
		for i := range names {
			names[i] = workload.ElemName(level, i%cfg.Labels)
		}
		return "(" + strings.Join(names, ",") + ")"
	}
	fmt.Fprintf(&b, "<!ELEMENT root %s>\n", seq(1))
	for level := 1; level <= cfg.Depth; level++ {
		for k := 0; k < cfg.Labels; k++ {
			name := workload.ElemName(level, k)
			if level == cfg.Depth {
				fmt.Fprintf(&b, "<!ELEMENT %s (#PCDATA)>\n", name)
			} else {
				fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, seq(level+1))
			}
			for a := 0; a < cfg.Attrs; a++ {
				fmt.Fprintf(&b, "<!ATTLIST %s a%d CDATA #REQUIRED>\n", name, a)
			}
		}
	}
	return b.String()
}

// genDTDSite builds a site over the synthetic workload whose document
// is an instance of strictDTD: instance and schema authorizations, the
// population they name, and requesters drawn from it plus anonymous.
func genDTDSite(t *testing.T, cfg workload.DocConfig, seed uint16) (*Site, string, []subjects.Requester) {
	t.Helper()
	const uri, dtdURI = "gen.xml", "gen.dtd"
	ac := workload.AuthConfig{
		N:                 4 + int(seed%13),
		Doc:               cfg,
		URI:               uri,
		DTDURI:            dtdURI,
		SchemaFraction:    0.25,
		WeakFraction:      0.2,
		PredicateFraction: 0.3,
		Pop:               workload.PopConfig{Users: 8, Groups: 4},
		Seed:              int64(seed),
	}.Norm()
	site := NewSite()
	site.Directory = workload.GenDirectory(ac.Pop)
	site.Engine.Hierarchy.Dir = site.Directory
	if err := site.Docs.AddDTD(dtdURI, strictDTD(ac.Doc)); err != nil {
		t.Fatal(err)
	}
	doc := workload.GenDocument(ac.Doc)
	doc.DocType = &dom.DocType{Name: "root", SystemID: dtdURI}
	if err := site.Docs.AddDocument(uri, doc.String()); err != nil {
		t.Fatal(err)
	}
	inst, schema := workload.GenAuths(ac)
	if err := site.Auths.AddAll(authz.InstanceLevel, inst); err != nil {
		t.Fatal(err)
	}
	if err := site.Auths.AddAll(authz.SchemaLevel, schema); err != nil {
		t.Fatal(err)
	}
	rqs := []subjects.Requester{site.RequesterFor("", "192.0.2.1")}
	for i := int64(0); i < 4; i++ {
		rqs = append(rqs, workload.GenRequester(ac.Pop, int64(seed)*4+i))
	}
	return site, uri, rqs
}

// assertServedViewValid parses the view the site serves rq, with the
// loosened DTD as the external subset its DOCTYPE names, and validates
// it: the paper's Section 6.2 theorem over the bytes a client receives.
func assertServedViewValid(t *testing.T, site *Site, rq subjects.Requester, uri string) {
	t.Helper()
	res, err := site.Process(rq, uri)
	if errors.Is(err, ErrNotFound) {
		return // an empty view is served as no document at all
	}
	if err != nil {
		t.Fatalf("%s: %v", rq, err)
	}
	loose := site.Docs.Loosened(res.DTDURI)
	if loose == nil {
		t.Fatalf("%s: view of %q names DTD %q, which has no loosened form", rq, uri, res.DTDURI)
	}
	parsed, err := xmlparse.Parse(res.XML, xmlparse.Options{
		Loader: xmlparse.MapLoader{res.DTDURI: loose.String()},
	})
	if err != nil {
		t.Fatalf("%s: served view does not parse: %v\n%s", rq, err, res.XML)
	}
	if parsed.DTD == nil {
		t.Fatalf("%s: served view does not name its DTD:\n%s", rq, res.XML)
	}
	if errs := parsed.DTD.Validate(parsed.Doc, dtd.ValidateOptions{IgnoreIDs: true}); errs != nil {
		t.Fatalf("%s: served view violates the loosened DTD: %v\n%s", rq, errs, res.XML)
	}
}

// FuzzServedViewLoosenedDTD: for any site the workload generators
// derive from the input — document shape, DTD, instance and schema
// authorizations, population, requesters — and for every conflict rule
// under both the open and the closed policy, each view the site serves
// validates against the loosened DTD. The lab site of the paper's
// examples (Tom, Sam and an anonymous requester) is the first seed.
func FuzzServedViewLoosenedDTD(f *testing.F) {
	f.Add(true, uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(true, uint8(0), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(false, uint8(2), uint8(2), uint8(2), uint8(0), uint16(1))
	f.Add(false, uint8(3), uint8(3), uint8(1), uint8(1), uint16(7))
	f.Add(false, uint8(2), uint8(1), uint8(1), uint8(2), uint16(43))
	f.Fuzz(func(t *testing.T, lab bool, depth, fanout, attrs, conflict uint8, seed uint16) {
		var site *Site
		var uri string
		var rqs []subjects.Requester
		if lab {
			site, uri = labSite(t), labexample.DocURI
			rqs = []subjects.Requester{
				labexample.Tom,
				{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"},
				site.RequesterFor("", "200.1.2.3"),
			}
		} else {
			cfg := workload.DocConfig{
				Depth:  1 + int(depth)%4,
				Fanout: 1 + int(fanout)%4,
				Attrs:  int(attrs) % 3,
				Labels: 1 + int(seed)%3,
				Seed:   int64(seed),
			}
			site, uri, rqs = genDTDSite(t, cfg, seed)
		}
		for _, open := range []bool{false, true} {
			site.Engine.SetPolicy(uri, core.Policy{Conflict: core.ConflictRule(conflict % 4), Open: open})
			for _, rq := range rqs {
				assertServedViewValid(t, site, rq, uri)
			}
		}
	})
}
