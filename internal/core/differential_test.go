package core_test

import (
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// The mask pipeline must be observationally identical to the
// reference pipeline: for any document, authorization set and
// requester, serializing the shared document through the visibility
// mask yields byte-for-byte the XML of a private copy labeled from
// first principles (NaiveLabel), physically pruned (PruneDoc) and
// written by the unmasked pointer-tree writer. The reference shares no
// code with the arena label, mask and serialize sweeps it checks.

// diffWriteOptions are the serialization shapes compared in every
// differential check (flat, pretty, with and without prolog).
var diffWriteOptions = []dom.WriteOptions{
	{},
	{Indent: "  "},
	{OmitDecl: true, OmitDocType: true},
	{Indent: "\t", OmitDecl: true},
}

// referenceView runs the reference pipeline on a copy of doc and
// returns the pruned copy, whether anything survived, and the
// statistics ComputeView would report (without the applicable-
// authorization counts, which only the engine knows).
func referenceView(t *testing.T, ctx string, eng *core.Engine, req core.Request, doc *dom.Document) (*dom.Document, bool, core.Stats) {
	t.Helper()
	ref := doc.Clone()
	lb, err := eng.NaiveLabel(req, ref, true)
	if err != nil {
		t.Fatalf("%s: reference labeling: %v", ctx, err)
	}
	st := core.Stats{Nodes: ref.CountNodes()}
	st.Plus, st.Minus, st.Eps = lb.Count()
	visible := core.PruneDoc(ref, lb, eng.PolicyFor(req.URI))
	st.Kept = ref.CountNodes()
	return ref, visible, st
}

// assertPipelinesAgree computes the view of doc for req through the
// mask pipeline and the reference pipeline and fails the test on any
// observable difference.
func assertPipelinesAgree(t *testing.T, ctx string, eng *core.Engine, req core.Request, doc *dom.Document) {
	t.Helper()
	mv, err := eng.ComputeView(req, doc)
	if err != nil {
		t.Fatalf("%s: mask pipeline: %v", ctx, err)
	}
	ref, visible, want := referenceView(t, ctx, eng, req, doc)
	if mv.Empty() == visible {
		t.Fatalf("%s: emptiness disagrees: mask %v, reference %v", ctx, mv.Empty(), !visible)
	}
	got := mv.Stats
	got.AuthsInstance, got.AuthsSchema = 0, 0
	if got != want {
		t.Errorf("%s: stats disagree: mask %+v, reference %+v", ctx, got, want)
	}
	for _, opts := range diffWriteOptions {
		var a, b strings.Builder
		if err := mv.WriteXML(&a, opts); err != nil {
			t.Fatalf("%s: mask serialization: %v", ctx, err)
		}
		if err := ref.Write(&b, opts); err != nil {
			t.Fatalf("%s: reference serialization: %v", ctx, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: serializations differ (opts %+v):\n--- mask ---\n%s\n--- reference ---\n%s",
				ctx, opts, a.String(), b.String())
		}
	}
	// The materialized mask view must match the pruned copy as a tree.
	if got, want := mv.Materialize().StringIndent("  "), ref.StringIndent("  "); got != want {
		t.Errorf("%s: materialized view differs from pruned copy:\n--- mask ---\n%s\n--- reference ---\n%s",
			ctx, got, want)
	}
}

// TestDifferentialFixtures sweeps the directed pruning fixtures —
// every corner of the prune semantics (structure-only ancestors,
// withheld text, attribute-kept shells, comments/PIs, open and closed
// policies, empty views) — through both pipelines.
func TestDifferentialFixtures(t *testing.T) {
	cases := []struct {
		name   string
		docXML string
		tuples []string
		pol    core.Policy
	}{
		{"subtree", `<a><b><c>deep</c></b><d>gone</d></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b/c,read,+,R>`}, core.Policy{}},
		{"structure-text", `<a>secret<b>ok</b></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b,read,+,R>`}, core.Policy{}},
		{"denied-attr", `<a x="1" y="2"/>`,
			[]string{
				`<<Public,*,*>,doc.xml:/a,read,+,L>`,
				`<<Public,*,*>,doc.xml:/a/@y,read,-,L>`,
			}, core.Policy{}},
		{"attr-shell", `<a><b x="1">hidden</b></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b/@x,read,+,L>`}, core.Policy{}},
		{"empty-view", `<a><b/></a>`, nil, core.Policy{}},
		{"open-policy", `<a><b>keep</b><c>no</c></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/c,read,-,R>`}, core.Policy{Open: true}},
		{"closed-policy", `<a><b>keep</b><c>no</c></a>`,
			[]string{`<<Public,*,*>,doc.xml:/a/b,read,+,R>`}, core.Policy{}},
		{"weak-override", `<a><b>x</b></a>`,
			[]string{
				`<<Public,*,*>,doc.xml:/a,read,+,RW>`,
				`<<Public,*,*>,doc.xml:/a/b,read,-,L>`,
			}, core.Policy{}},
		{"mixed-depth", `<r><a p="1"><b>t1</b><c q="2">t2<d/></c></a><e>t3</e></r>`,
			[]string{
				`<<Public,*,*>,doc.xml:/r/a,read,+,R>`,
				`<<Public,*,*>,doc.xml:/r/a/c,read,-,L>`,
				`<<Public,*,*>,doc.xml:/r/a/c/d,read,+,L>`,
			}, core.Policy{}},
	}
	for _, c := range cases {
		res, err := xmlparse.Parse(c.docXML, xmlparse.Options{KeepComments: true})
		if err != nil {
			t.Fatal(err)
		}
		dir := subjects.NewDirectory()
		if err := dir.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		store := authz.NewStore()
		for _, tu := range c.tuples {
			if err := store.Add(authz.InstanceLevel, mustAuth(t, tu)); err != nil {
				t.Fatal(err)
			}
		}
		eng := core.NewEngine(dir, store)
		eng.Default = c.pol
		req := core.Request{
			Requester: subjects.Requester{User: "u", IP: "9.9.9.9", Host: "h.test.org"},
			URI:       "doc.xml",
		}
		assertPipelinesAgree(t, c.name, eng, req, res.Doc)
	}
}

// TestDifferentialFigure1 runs the paper's running example (Figure 1
// document, Figure 4/5 authorizations) for each of its characteristic
// requesters through both pipelines.
func TestDifferentialFigure1(t *testing.T) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	for _, rq := range []subjects.Requester{
		labexample.Tom,
		{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"},
		{User: "anonymous", IP: "200.1.2.3", Host: "outside.example.com"},
		{User: "Alice", IP: "151.100.1.1", Host: "a.dsi.it"},
	} {
		req := core.Request{Requester: rq, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
		assertPipelinesAgree(t, "figure1/"+rq.User, eng, req, doc)
	}
}

// TestDifferentialRandomized fuzzes both pipelines with generated
// documents, DTDs, populations and authorization sets.
func TestDifferentialRandomized(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eng, req, doc, _ := randomSetup(seed)
		assertPipelinesAgree(t, "seed", eng, req, doc)
	}
}

// TestDifferentialDeepDocument pins both pipelines — recursive
// labeling, mask construction, pruning, and serialization — on a
// 10000-element-deep chain with the only grant on the deepest leaf, so
// every ancestor survives as structure. None of the recursions may
// overflow, and the outputs must still agree.
func TestDifferentialDeepDocument(t *testing.T) {
	const depth = 10000
	doc := dom.NewDocument()
	root := dom.NewElement("d")
	doc.SetDocumentElement(root)
	cur := root
	for i := 0; i < depth; i++ {
		cur.AppendChild(dom.NewText("hidden"))
		next := dom.NewElement("c")
		cur.AppendChild(next)
		cur = next
	}
	leaf := dom.NewElement("leaf")
	leaf.AppendChild(dom.NewText("visible"))
	cur.AppendChild(leaf)
	doc.Renumber()

	dir := subjects.NewDirectory()
	if err := dir.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	if err := store.Add(authz.InstanceLevel, mustAuth(t, `<<Public,*,*>,deep.xml://leaf,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(dir, store)
	req := core.Request{
		Requester: subjects.Requester{User: "u", IP: "9.9.9.9", Host: "h.test.org"},
		URI:       "deep.xml",
	}
	mv, err := eng.ComputeView(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	var a strings.Builder
	if err := mv.WriteXML(&a, dom.WriteOptions{OmitDecl: true, OmitDocType: true}); err != nil {
		t.Fatal(err)
	}
	out := a.String()
	if strings.Contains(out, "hidden") {
		t.Fatal("structural ancestors leaked their text at depth")
	}
	if !strings.Contains(out, "visible") {
		t.Fatal("granted leaf missing from deep view")
	}
	if got, want := strings.Count(out, "<c>"), depth; got != want {
		t.Fatalf("structural chain truncated: %d of %d <c> elements", got, want)
	}
	// NaiveLabel climbs every node's ancestor chain, which is quadratic
	// in depth (seconds at 10000), so the reference copy takes its labels
	// from the engine; the transformation and serialization still run
	// through PruneDoc and the pointer-tree writer. Label parity with
	// NaiveLabel is pinned by the other differential tests.
	ref := doc.Clone()
	lb, _, err := eng.Label(req, ref)
	if err != nil {
		t.Fatal(err)
	}
	core.PruneDoc(ref, lb, eng.PolicyFor(req.URI))
	var b strings.Builder
	if err := ref.Write(&b, dom.WriteOptions{OmitDecl: true, OmitDocType: true}); err != nil {
		t.Fatal(err)
	}
	if out != b.String() {
		t.Error("deep-document serializations differ between pipelines")
	}
}
