package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

func tomView(t testing.TB) *core.View {
	t.Helper()
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	view, err := eng.ComputeView(labRequest(labexample.Tom), doc)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestQuerySelectsOnlyVisible(t *testing.T) {
	view := tomView(t)
	nodes, err := view.Query("//paper")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("Tom's //paper query = %d nodes, want 2 (public only)", len(nodes))
	}
	for _, i := range nodes {
		if v, _ := view.Node(i).Attr("category"); v != "public" {
			t.Errorf("non-public paper in query result: %v", v)
		}
	}
	// Directly naming protected content yields nothing.
	nodes, err = view.Query(`//paper[@category="private"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 0 {
		t.Errorf("private papers selectable through the view: %d nodes", len(nodes))
	}
	// Hidden attributes are gone too.
	nodes, err = view.Query("//project/@name")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 0 {
		t.Errorf("pruned attributes selectable: %d nodes", len(nodes))
	}
}

func TestQueryResultDocument(t *testing.T) {
	view := tomView(t)
	res, err := view.QueryResult("//title")
	if err != nil {
		t.Fatal(err)
	}
	root := res.DocumentElement()
	if root.Name != "result" {
		t.Fatalf("result root = %s", root.Name)
	}
	if v, _ := root.Attr("count"); v != "2" {
		t.Errorf("count = %s", v)
	}
	out := res.StringIndent("  ")
	if !strings.Contains(out, "XML Views") || strings.Contains(out, "Security Markup") {
		t.Errorf("result content wrong:\n%s", out)
	}
	// Attribute matches render as named values.
	res, err = view.QueryResult("//paper/@category")
	if err != nil {
		t.Fatal(err)
	}
	out = res.StringIndent("  ")
	if !strings.Contains(out, `<match name="category">public</match>`) {
		t.Errorf("attribute match rendering wrong:\n%s", out)
	}
}

func TestQueryErrorsAndEmptyView(t *testing.T) {
	view := tomView(t)
	if _, err := view.Query("///"); err == nil {
		t.Error("bad expression should fail")
	}
	// Query over an empty view returns no nodes.
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := labRequest(labexample.Tom)
	req.URI = "unknown.xml" // no authorizations → empty view
	req.DTDURI = ""
	empty, err := eng.ComputeView(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := empty.Query("//paper")
	if err != nil || len(nodes) != 0 {
		t.Errorf("empty view query = %v, %v", nodes, err)
	}
}

// leakDoc carries one hidden construct per leak the masked evaluator
// must not open. Every hidden datum contains a marker that appears
// nowhere visible, so a leak shows up as a marker in a match.
const leakDoc = `<top>` +
	`<x id="XIDMARK" secret="SECRETMARK" pub="p">xt</x>` +
	`<s>WITHHELDMARK<k>kid</k>WITHHELDMARK</s>` +
	`<list><item id="h1">HIDDENITEMMARK</item><item>a</item><item>b</item></list>` +
	`<a>FIRSTAMARK</a>` +
	`<p>before</p><hid><deep>DEEPMARK</deep></hid><q>after</q>` +
	`<a>second-a</a>` +
	`</top>`

// leakMarkers are the hidden data of leakDoc's view.
var leakMarkers = []string{"XIDMARK", "SECRETMARK", "WITHHELDMARK", "HIDDENITEMMARK", "FIRSTAMARK", "DEEPMARK", "h1"}

// leakView computes the view of leakDoc that hides, in turn: an
// attribute tested by a predicate, an element's id attribute, the
// character data of an element kept only as structure for its visible
// child, a sibling before a positional match, the first of two
// elements a filter expression indexes, and a subtree between the
// context and the target of following::/preceding::.
func leakView(t testing.TB) *core.View {
	t.Helper()
	res, err := xmlparse.Parse(leakDoc, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := subjects.NewDirectory()
	if err := dir.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	for _, tuple := range []string{
		`<<Public,*,*>,l.xml:/top,read,+,R>`,
		`<<Public,*,*>,l.xml://x/@secret,read,-,L>`,
		`<<Public,*,*>,l.xml://x/@id,read,-,L>`,
		`<<Public,*,*>,l.xml://s,read,-,R>`,
		`<<Public,*,*>,l.xml://s/k,read,+,R>`,
		`<<Public,*,*>,l.xml:/top/list/item[1],read,-,R>`,
		`<<Public,*,*>,l.xml:/top/a[1],read,-,R>`,
		`<<Public,*,*>,l.xml://hid,read,-,R>`,
	} {
		if err := store.Add(authz.InstanceLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	view, err := core.NewEngine(dir, store).ComputeView(core.Request{
		Requester: subjects.Requester{User: "u", IP: "10.0.0.5"},
		URI:       "l.xml",
	}, res.Doc)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// materializedResult is the oracle for QueryResult: the tree evaluator
// over the materialized view, with matches cloned from that tree, and
// refused when the clones would hold more than xpath.MaxResultNodes
// nodes.
func materializedResult(v *core.View, expr string) (*dom.Document, error) {
	p, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	var nodes []*dom.Node
	if !v.Empty() {
		if nodes, err = p.SelectDoc(v.Materialize()); err != nil {
			return nil, err
		}
	}
	copied := 0
	for _, n := range nodes {
		if n.Type == dom.ElementNode {
			copied += subtreeSize(n)
		} else {
			copied++
		}
	}
	if copied > xpath.MaxResultNodes {
		return nil, xpath.ErrResultSize
	}
	doc := dom.NewDocument()
	root := dom.NewElement("result")
	root.SetAttr("query", expr)
	root.SetAttr("count", fmt.Sprintf("%d", len(nodes)))
	for _, n := range nodes {
		m := dom.NewElement("match")
		switch n.Type {
		case dom.ElementNode:
			m.AppendChild(n.Clone())
		case dom.AttributeNode:
			m.SetAttr("name", n.Name)
			m.AppendChild(dom.NewText(n.Data))
		default:
			m.AppendChild(dom.NewText(n.Data))
		}
		root.AppendChild(m)
	}
	doc.SetDocumentElement(root)
	doc.Renumber()
	return doc, nil
}

// subtreeSize counts n, its attributes and its descendants.
func subtreeSize(n *dom.Node) int {
	size := 1 + len(n.Attrs)
	for _, c := range n.Children {
		size += subtreeSize(c)
	}
	return size
}

// queryParity evaluates expr over the view under its mask and over the
// materialized view, failing unless both agree on error-ness and, on
// success, on the serialized result bytes. It returns the masked result.
func queryParity(t testing.TB, v *core.View, expr string) *dom.Document {
	t.Helper()
	got, gotErr := v.QueryResult(expr)
	want, wantErr := materializedResult(v, expr)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: masked err %v, materialized err %v", expr, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	var g, w bytes.Buffer
	if err := got.Write(&g, dom.WriteOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&w, dom.WriteOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%q: masked result differs from the materialized view's\nmasked:\n%s\nmaterialized:\n%s", expr, g.Bytes(), w.Bytes())
	}
	return got
}

// TestQueryLeakSuite: expressions that name or count hidden nodes, or
// read hidden character data, behave as if those nodes were absent —
// the same as over the materialized view, whose tree does not contain
// them — and no match ever carries hidden markup.
func TestQueryLeakSuite(t *testing.T) {
	view := leakView(t)
	cases := []struct {
		expr  string
		count int    // matches expected
		text  string // the string-value the first match must have, if set
	}{
		// A predicate on a hidden attribute sees no attribute.
		{`//x[@secret='SECRETMARK']`, 0, ""},
		{`//x[@secret]`, 0, ""},
		{`//x[@pub='p']`, 1, "xt"},
		{`//x/@*`, 1, "p"},
		// The withheld text of an element kept as structure is not part
		// of its string-value.
		{`//s[. = 'kid']`, 1, "kid"},
		{`//s[string() = 'kid']`, 1, "kid"},
		{`//s[contains(., 'WITHHELDMARK')]`, 0, ""},
		{`//s[contains(string(.), 'kid')]/k`, 1, "kid"},
		{`//s/text()`, 0, ""},
		{`//*[starts-with(., 'WITHHELD')]`, 0, ""},
		// Positions and sizes count only visible siblings.
		{`/top/list/item[1]`, 1, "a"},
		{`/top/list/item[2]`, 1, "b"},
		{`/top/list/item[last()]`, 1, "b"},
		{`/top/list[count(item) = 2]`, 1, "ab"},
		{`/top/list/item[3]`, 0, ""},
		// count() counts the view's elements only.
		{`/top[count(//*) = 10]`, 1, ""},
		// following::/preceding:: step over the hidden subtree.
		{`//p/following::*[1]`, 1, "after"},
		{`//q/preceding::*[1]`, 1, "before"},
		{`//p/following-sibling::*[1]`, 1, "after"},
		{`//q/preceding-sibling::*[1]`, 1, "before"},
		{`//deep | //hid | //p/following::deep`, 0, ""},
		// ancestor:: from a visible leaf reaches its structure-only
		// ancestor, whose string-value is still only the visible text.
		{`//k/ancestor::*`, 2, ""},
		{`//k/ancestor::*[1]`, 1, "kid"},
		{`//k/ancestor::s[. = 'kid']`, 1, "kid"},
		// id() finds neither a hidden element nor an element through a
		// hidden id attribute.
		{`id('h1')`, 0, ""},
		{`id('XIDMARK')`, 0, ""},
		// A filter expression indexes the visible nodes only.
		{`(//a)[1]`, 1, "second-a"},
		{`(//a)[last()]`, 1, "second-a"},
		{`(//item)[1]`, 1, "a"},
		// Whole-view selections carry no hidden markup.
		{`/top`, 1, ""},
		{`//node()`, 17, ""},
		{`//@*`, 1, "p"},
	}
	for _, tc := range cases {
		res := queryParity(t, view, tc.expr)
		if res == nil {
			t.Fatalf("%q failed", tc.expr)
		}
		matches := res.DocumentElement().Children
		if len(matches) != tc.count {
			t.Errorf("%q selected %d nodes, want %d:\n%s", tc.expr, len(matches), tc.count, res.StringIndent("  "))
			continue
		}
		if tc.text != "" && matches[0].Text() != tc.text {
			t.Errorf("%q: first match has string-value %q, want %q", tc.expr, matches[0].Text(), tc.text)
		}
		for _, m := range matches {
			for _, marker := range leakMarkers {
				if s := dom.MarkupString(m); strings.Contains(s, marker) {
					t.Errorf("%q: match carries hidden %q: %s", tc.expr, marker, s)
				}
			}
		}
	}
}

// TestQueryResultBoundMatchesMaterialized pins the result bound at its
// edge. //* over a chain of d visible elements copies d(d+1)/2 nodes;
// the test takes the deepest chain within xpath.MaxResultNodes and the
// next one, which crosses it. Each level also holds a hidden element and
// a hidden attribute that the count must skip. Masked and materialized
// evaluation must agree on which depth is refused.
func TestQueryResultBoundMatchesMaterialized(t *testing.T) {
	edge := 1
	for (edge+1)*(edge+2)/2 <= xpath.MaxResultNodes {
		edge++
	}
	for _, tc := range []struct {
		depth   int
		refused bool
	}{{edge, false}, {edge + 1, true}} {
		src := strings.Repeat(`<a s="x"><h/>`, tc.depth) + strings.Repeat(`</a>`, tc.depth)
		res, err := xmlparse.Parse(src, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ar := res.Doc.ReadArena()
		mask := dom.NewBitmask(ar.Len())
		for i := int32(0); i < int32(ar.Len()); i++ {
			if ar.Kind(i) == dom.DocumentNode || ar.Kind(i) == dom.ElementNode && ar.Name(i) == "a" {
				mask.Set(int(i))
			}
		}
		v := &core.View{Doc: res.Doc, Mask: mask}
		_, gotErr := v.QueryResult("//*")
		_, wantErr := materializedResult(v, "//*")
		if errors.Is(gotErr, xpath.ErrResultSize) != tc.refused || errors.Is(wantErr, xpath.ErrResultSize) != tc.refused {
			t.Errorf("depth %d: masked err %v, materialized err %v, want refused=%v", tc.depth, gotErr, wantErr, tc.refused)
		}
	}
}

// FuzzMaskedQueryParity is the differential for mask-native queries:
// for a view of a seed-derived random document under a seed-derived
// policy (plus the leak-suite and paper-example views), any expression
// the compiler accepts must give the same QueryResult bytes when
// evaluated under the view's mask as the tree evaluator gives over the
// materialized view, and fail exactly when it fails.
func FuzzMaskedQueryParity(f *testing.F) {
	for i, s := range []string{
		`//*`, `//node()`, `//@*`, `//text()`, `/`, `/*/*[2]`,
		`//*[@a0 = '1']/@a1`, `//*[count(*) = 3][last()]`,
		`//e2x1/ancestor::*`, `//e3x0/following::*[1]`, `//e3x2/preceding::node()[2]`,
		`//e2x0/following-sibling::*`, `//e2x2/preceding-sibling::*[1]/@*`,
		`(//e3x1)[2]/..`, `id('n1')`, `//*[. = 'v7']`, `//*[contains(., 'v')]`,
		`//paper[@category]/title`, `//project[fund]/ancestor-or-self::*`,
		`//x[@secret='SECRETMARK']`, `//s[. = 'kid']`, `(//a)[1]`, `id('h1')`,
		`count(//*)`, `//*[string-length(normalize-space()) > 2]`,
	} {
		f.Add(uint8(i), s)
	}
	views := []*core.View{leakView(f), tomView(f)}
	for seed := int64(1); seed <= 8; seed++ {
		eng, req, doc, _ := randomSetup(seed)
		v, err := eng.ComputeView(req, doc)
		if err != nil {
			f.Fatal(err)
		}
		views = append(views, v)
	}
	f.Fuzz(func(t *testing.T, seed uint8, expr string) {
		if _, err := xpath.Compile(expr); err != nil {
			return
		}
		queryParity(t, views[int(seed)%len(views)], expr)
	})
}
