package core_test

import (
	"errors"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// mergeFixture sets up a document with read and write authorizations
// and returns everything needed to exercise MergeView directly.
type mergeFixture struct {
	eng  *core.Engine
	doc  *dom.Document
	rq   subjects.Requester
	read core.Request
}

// newMergeFixture: the document has a public section, a private
// section (hidden from u), and a log section readable but not writable.
// u may read public+log and write only public.
func newMergeFixture(t *testing.T) *mergeFixture {
	t.Helper()
	res, err := xmlparse.Parse(
		`<site><public note="hi"><msg>hello</msg></public>`+
			`<private key="s3cret"><plan>attack at dawn</plan></private>`+
			`<log><entry>e1</entry></log></site>`,
		xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := subjects.NewDirectory()
	if err := dir.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	for _, tu := range []string{
		`<<u,*,*>,s.xml:/site/public,read,+,R>`,
		`<<u,*,*>,s.xml:/site/log,read,+,R>`,
		`<<u,*,*>,s.xml:/site/public,write,+,R>`,
	} {
		if err := store.Add(authz.InstanceLevel, mustAuth(t, tu)); err != nil {
			t.Fatal(err)
		}
	}
	eng := core.NewEngine(dir, store)
	rq := subjects.Requester{User: "u", IP: "1.2.3.4", Host: "h.example.org"}
	return &mergeFixture{
		eng:  eng,
		doc:  res.Doc.ReadTree(),
		rq:   rq,
		read: core.Request{Requester: rq, URI: "s.xml"},
	}
}

// merge runs the full write-through-views flow for an updated source.
func (f *mergeFixture) merge(t *testing.T, updated string) (*dom.Document, error) {
	t.Helper()
	view, err := f.eng.ComputeView(f.read, f.doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xmlparse.Parse(updated, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeReq := f.read
	writeReq.Action = "write"
	lb, _, err := f.eng.Label(writeReq, f.doc)
	if err != nil {
		t.Fatal(err)
	}
	writable := func(n *dom.Node) bool { return lb.FinalOf(n) == core.Plus }
	return core.MergeView(f.doc, view, res.Doc, writable)
}

func TestMergePreservesHiddenContent(t *testing.T) {
	f := newMergeFixture(t)
	// u's view: <site><public note="hi"><msg>hello</msg></public><log>...</log></site>.
	// They edit their message.
	merged, err := f.merge(t,
		`<site><public note="hi"><msg>EDITED</msg></public><log><entry>e1</entry></log></site>`)
	if err != nil {
		t.Fatal(err)
	}
	got := merged.StringIndent("")
	if !strings.Contains(got, "EDITED") {
		t.Errorf("edit lost:\n%s", got)
	}
	if !strings.Contains(got, "attack at dawn") || !strings.Contains(got, `key="s3cret"`) {
		t.Errorf("hidden content not preserved:\n%s", got)
	}
	// The hidden section keeps its position (between public and log).
	root := merged.DocumentElement()
	names := []string{}
	for _, c := range root.ChildElements() {
		names = append(names, c.Name)
	}
	if strings.Join(names, ",") != "public,private,log" {
		t.Errorf("child order = %v", names)
	}
}

func TestMergeNoOpPreservesEverything(t *testing.T) {
	f := newMergeFixture(t)
	merged, err := f.merge(t,
		`<site><public note="hi"><msg>hello</msg></public><log><entry>e1</entry></log></site>`)
	if err != nil {
		t.Fatal(err)
	}
	if merged.StringIndent("") != f.doc.StringIndent("") {
		t.Errorf("no-op merge changed the document:\n%s\nvs\n%s",
			merged.StringIndent(""), f.doc.StringIndent(""))
	}
}

func TestMergeDeniesEditOutsideWriteRegion(t *testing.T) {
	f := newMergeFixture(t)
	// log is readable but not writable.
	_, err := f.merge(t,
		`<site><public note="hi"><msg>hello</msg></public><log><entry>TAMPERED</entry></log></site>`)
	var wde *core.WriteDeniedError
	if !errors.As(err, &wde) {
		t.Fatalf("tampering with log: %v, want WriteDeniedError", err)
	}
	if !strings.Contains(wde.Reason, "/site/log") {
		t.Errorf("denial should name the node: %s", wde.Reason)
	}
	// Deleting the log is equally denied.
	_, err = f.merge(t, `<site><public note="hi"><msg>hello</msg></public></site>`)
	if !errors.As(err, &wde) {
		t.Fatalf("deleting log: %v, want WriteDeniedError", err)
	}
}

func TestMergeDeniesSmugglingHiddenContent(t *testing.T) {
	f := newMergeFixture(t)
	// The oracle attack: the requester guesses the hidden section and
	// includes it verbatim. Relative to their view it is an insertion
	// under <site>, which they may not write.
	_, err := f.merge(t,
		`<site><public note="hi"><msg>hello</msg></public>`+
			`<private key="s3cret"><plan>attack at dawn</plan></private>`+
			`<log><entry>e1</entry></log></site>`)
	var wde *core.WriteDeniedError
	if !errors.As(err, &wde) {
		t.Fatalf("smuggled hidden content: %v, want WriteDeniedError", err)
	}
}

func TestMergeAllowsEditsInsideWriteRegion(t *testing.T) {
	f := newMergeFixture(t)
	merged, err := f.merge(t,
		`<site><public note="updated"><msg>hello</msg><msg>second</msg></public>`+
			`<log><entry>e1</entry></log></site>`)
	if err != nil {
		t.Fatal(err)
	}
	got := merged.StringIndent("")
	if !strings.Contains(got, `note="updated"`) || !strings.Contains(got, "second") {
		t.Errorf("authorized edits lost:\n%s", got)
	}
	if !strings.Contains(got, "attack at dawn") {
		t.Errorf("hidden content lost:\n%s", got)
	}
	// Deleting within the region works too.
	merged, err = f.merge(t,
		`<site><public note="hi"/><log><entry>e1</entry></log></site>`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(merged.StringIndent(""), "<msg>") {
		t.Errorf("authorized deletion ineffective:\n%s", merged.StringIndent(""))
	}
}

func TestMergeDeniesHiddenAttributeCollision(t *testing.T) {
	res, err := xmlparse.Parse(`<a secret="1"><b>x</b></a>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Doc.ReadTree() // MergeView needs a tree
	dir := subjects.NewDirectory()
	if err := dir.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	// u reads and writes the element and its children, but the secret
	// attribute is read-denied.
	for _, tu := range []string{
		`<<u,*,*>,a.xml:/a,read,+,R>`,
		`<<u,*,*>,a.xml:/a/@secret,read,-,L>`,
		`<<u,*,*>,a.xml:/a,write,+,R>`,
	} {
		if err := store.Add(authz.InstanceLevel, mustAuth(t, tu)); err != nil {
			t.Fatal(err)
		}
	}
	eng := core.NewEngine(dir, store)
	rq := subjects.Requester{User: "u", IP: "1.2.3.4"}
	read := core.Request{Requester: rq, URI: "a.xml"}
	view, err := eng.ComputeView(read, orig)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := xmlparse.Parse(`<a secret="overwrite"><b>x</b></a>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeReq := read
	writeReq.Action = "write"
	lb, _, err := eng.Label(writeReq, orig)
	if err != nil {
		t.Fatal(err)
	}
	writable := func(n *dom.Node) bool { return lb.FinalOf(n) == core.Plus }
	_, err = core.MergeView(orig, view, upd.Doc, writable)
	var wde *core.WriteDeniedError
	if !errors.As(err, &wde) || !strings.Contains(wde.Reason, "@secret") {
		t.Fatalf("hidden attribute collision: %v", err)
	}
}

func TestMergeDeniesContentEditWithHiddenText(t *testing.T) {
	// The element is kept as structure only (its text hidden); editing
	// its content must be refused even with write authority.
	res, err := xmlparse.Parse(`<a>hidden text<b>vis</b></a>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Doc.ReadTree() // MergeView needs a tree
	dir := subjects.NewDirectory()
	if err := dir.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	for _, tu := range []string{
		`<<u,*,*>,a.xml:/a/b,read,+,R>`, // a is structure-only
		`<<u,*,*>,a.xml:/a,write,+,R>`,
	} {
		if err := store.Add(authz.InstanceLevel, mustAuth(t, tu)); err != nil {
			t.Fatal(err)
		}
	}
	eng := core.NewEngine(dir, store)
	rq := subjects.Requester{User: "u", IP: "1.2.3.4"}
	read := core.Request{Requester: rq, URI: "a.xml"}
	view, err := eng.ComputeView(read, orig)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := xmlparse.Parse(`<a>injected<b>vis</b></a>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeReq := read
	writeReq.Action = "write"
	lb, _, err := eng.Label(writeReq, orig)
	if err != nil {
		t.Fatal(err)
	}
	writable := func(n *dom.Node) bool { return lb.FinalOf(n) == core.Plus }
	_, err = core.MergeView(orig, view, upd.Doc, writable)
	var wde *core.WriteDeniedError
	if !errors.As(err, &wde) || !strings.Contains(wde.Reason, "not fully readable") {
		t.Fatalf("blind content edit: %v", err)
	}
}

func TestMergeRejectsForeignView(t *testing.T) {
	f := newMergeFixture(t)
	view, err := f.eng.ComputeView(f.read, f.doc)
	if err != nil {
		t.Fatal(err)
	}
	other, err := xmlparse.Parse(`<site><public/></site>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := xmlparse.Parse(`<site><public/></site>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.MergeView(other.Doc, view, upd.Doc, func(*dom.Node) bool { return true })
	var wde *core.WriteDeniedError
	if !errors.As(err, &wde) {
		t.Fatalf("foreign view accepted: %v", err)
	}
}
