package xpath

import (
	"math"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/xmlparse"
)

const evalDoc = `<lib>
  <shelf floor="1">
    <book id="b1" year="1998"><title>TCP/IP</title><author>Stevens</author></book>
    <book id="b2" year="2000"><title>XML</title><author>Bray</author></book>
  </shelf>
  <shelf floor="2">
    <book id="b3" year="2000"><title>Security</title><author>Anderson</author></book>
  </shelf>
  <magazine id="m1"/>
</lib>`

func evalTree(t *testing.T) *dom.Document {
	t.Helper()
	res, err := xmlparse.Parse(evalDoc, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Doc.ReadTree()
}

// sel evaluates expr from the document node and returns the node-set.
func sel(t *testing.T, doc *dom.Document, expr string) []*dom.Node {
	t.Helper()
	p, err := Compile(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	nodes, err := p.SelectDoc(doc)
	if err != nil {
		t.Fatalf("select %q: %v", expr, err)
	}
	return nodes
}

// val evaluates expr to a Value from the document node.
func val(t *testing.T, doc *dom.Document, expr string) Value {
	t.Helper()
	p, err := Compile(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	v, err := p.Eval(doc.Node)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func ids(nodes []*dom.Node) string {
	var out []string
	for _, n := range nodes {
		if v, ok := n.Attr("id"); ok {
			out = append(out, v)
		} else {
			out = append(out, n.Name)
		}
	}
	return strings.Join(out, ",")
}

func TestAxes(t *testing.T) {
	doc := evalTree(t)
	cases := []struct {
		expr string
		want string
	}{
		{"/lib/shelf/book", "b1,b2,b3"},
		{"//book", "b1,b2,b3"},
		{"/descendant::book", "b1,b2,b3"},
		{"//book/parent::shelf", "shelf,shelf"},
		{"//book[@id='b2']/ancestor::*", "lib,shelf"},
		{"//book[@id='b2']/ancestor-or-self::*", "lib,shelf,b2"},
		{"//author/ancestor::book", "b1,b2,b3"},
		{"//book[@id='b1']/following-sibling::book", "b2"},
		{"//book[@id='b2']/preceding-sibling::book", "b1"},
		{"//book[@id='b2']/self::book", "b2"},
		{"/lib/child::shelf", "shelf,shelf"},
		{"//book/..", "shelf,shelf"},
		{"//shelf/descendant-or-self::shelf", "shelf,shelf"},
		{"/lib/*", "shelf,shelf,m1"},
	}
	for _, c := range cases {
		if got := ids(sel(t, doc, c.expr)); got != c.want {
			t.Errorf("%q = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestAttributeAxis(t *testing.T) {
	doc := evalTree(t)
	if got := len(sel(t, doc, "//book/@year")); got != 3 {
		t.Errorf("//book/@year: %d nodes, want 3", got)
	}
	if got := len(sel(t, doc, "//book/attribute::*")); got != 6 {
		t.Errorf("//book/attribute::*: %d nodes, want 6", got)
	}
	// Attribute's parent.
	if got := ids(sel(t, doc, "//@year/..")); got != "b1,b2,b3" {
		t.Errorf("//@year/.. = %s", got)
	}
}

func TestNodeTests(t *testing.T) {
	doc := evalTree(t)
	if n := len(sel(t, doc, "//book/title/text()")); n != 3 {
		t.Errorf("text() selected %d", n)
	}
	if n := len(sel(t, doc, "//node()")); n == 0 {
		t.Error("node() selected nothing")
	}
	res, _ := xmlparse.Parse(`<a><!--x--><?pi d?><b/></a>`, xmlparse.Options{KeepComments: true})
	p := MustCompile("/a/comment()")
	nodes, err := p.SelectDoc(res.Doc)
	if err != nil || len(nodes) != 1 {
		t.Errorf("comment() = %v, %v", nodes, err)
	}
	p = MustCompile("/a/processing-instruction()")
	nodes, _ = p.SelectDoc(res.Doc)
	if len(nodes) != 1 {
		t.Errorf("processing-instruction() = %d", len(nodes))
	}
	p = MustCompile("/a/processing-instruction('other')")
	nodes, _ = p.SelectDoc(res.Doc)
	if len(nodes) != 0 {
		t.Error("PI target filter failed")
	}
}

func TestPositionalPredicates(t *testing.T) {
	doc := evalTree(t)
	cases := []struct {
		expr, want string
	}{
		{"//book[1]", "b1,b3"}, // first within each shelf
		{"(//book)[1]", "b1"},  // first overall
		{"//book[last()]", "b2,b3"},
		{"//book[position()=2]", "b2"},
		{"//book[position()>1]", "b2"},
		{"/lib/shelf[2]/book[1]", "b3"},
		{"//book[@id='b2'][1]", "b2"},
	}
	for _, c := range cases {
		if got := ids(sel(t, doc, c.expr)); got != c.want {
			t.Errorf("%q = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestReverseAxisPositions(t *testing.T) {
	doc := evalTree(t)
	// ancestor::*[1] is the nearest ancestor — the book itself.
	got := ids(sel(t, doc, "//author[../@id='b2']/ancestor::*[1]"))
	if got != "b2" {
		t.Errorf("nearest ancestor = %s, want b2", got)
	}
	got = ids(sel(t, doc, "//author[../@id='b2']/ancestor::*[2]"))
	if got != "shelf" {
		t.Errorf("second-nearest ancestor = %s, want shelf", got)
	}
	got = ids(sel(t, doc, "//book[@id='b2']/preceding-sibling::*[1]"))
	if got != "b1" {
		t.Errorf("nearest preceding sibling = %s, want b1", got)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	doc := evalTree(t)
	cases := []struct {
		expr, want string
	}{
		{"//book[@year=2000]", "b2,b3"},
		{"//book[@year='2000']", "b2,b3"},
		{"//book[@year!=2000]", "b1"},
		{"//book[@year<2000]", "b1"},
		{"//book[@year<=2000]", "b1,b2,b3"},
		{"//book[@year>1999 and @id='b3']", "b3"},
		{"//book[@id='b1' or @id='b3']", "b1,b3"},
		{"//book[title='XML']", "b2"},
		{"//book[not(author='Stevens')]", "b2,b3"},
		{"//shelf[book/@year=1998]", "shelf"},
		{"//book[@year+1=2001]", "b2,b3"},
		{"//book[@year mod 2 = 0]", "b1,b2,b3"},
		{"//book[@year div 2 = 1000]", "b2,b3"},
		{"//book[-(-@year)=1998]", "b1"},
	}
	for _, c := range cases {
		if got := ids(sel(t, doc, c.expr)); got != c.want {
			t.Errorf("%q = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestUnion(t *testing.T) {
	doc := evalTree(t)
	got := ids(sel(t, doc, "//book[@id='b3'] | //book[@id='b1'] | //magazine"))
	// Document order, duplicates removed.
	if got != "b1,b3,m1" {
		t.Errorf("union = %s, want b1,b3,m1", got)
	}
	got = ids(sel(t, doc, "//book | //book"))
	if got != "b1,b2,b3" {
		t.Errorf("self-union should deduplicate: %s", got)
	}
}

func TestDocumentOrderOfResults(t *testing.T) {
	doc := evalTree(t)
	nodes := sel(t, doc, "//author | //title")
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Order <= nodes[i-1].Order {
			t.Fatal("results not in document order")
		}
	}
	if len(nodes) != 6 {
		t.Errorf("want 6 nodes, got %d", len(nodes))
	}
}

func TestStringFunctions(t *testing.T) {
	doc := evalTree(t)
	cases := []struct {
		expr string
		want string
	}{
		{"string(//book/@id)", "b1"},
		{"concat('a','b','c')", "abc"},
		{"substring('12345',2,3)", "234"},
		{"substring('12345',2)", "2345"},
		{"substring('12345',1.5,2.6)", "234"}, // the spec's rounding example
		{"substring-before('1999/04/01','/')", "1999"},
		{"substring-after('1999/04/01','/')", "04/01"},
		{"normalize-space('  a  b ')", "a b"},
		{"translate('bar','abc','ABC')", "BAr"},
		{"translate('--aaa--','abc-','ABC')", "AAA"},
		{"string(1 div 0)", "Infinity"},
		{"string(0 div 0)", "NaN"},
		{"string(2+2)", "4"},
		{"name(//book[2])", "book"},
		{"name(//@year)", "year"},
	}
	for _, c := range cases {
		if got := val(t, doc, c.expr).ToString(); got != c.want {
			t.Errorf("%q = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestBooleanNumberFunctions(t *testing.T) {
	doc := evalTree(t)
	boolCases := []struct {
		expr string
		want bool
	}{
		{"true()", true},
		{"false()", false},
		{"not(false())", true},
		{"boolean(//book)", true},
		{"boolean(//ghost)", false},
		{"boolean(0)", false},
		{"boolean('x')", true},
		{"contains('seafood','foo')", true},
		{"starts-with('seafood','sea')", true},
		{"starts-with('seafood','food')", false},
	}
	for _, c := range boolCases {
		if got := val(t, doc, c.expr).ToBool(); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
	numCases := []struct {
		expr string
		want float64
	}{
		{"count(//book)", 3},
		{"sum(//book/@year)", 5998},
		{"floor(2.7)", 2},
		{"ceiling(2.1)", 3},
		{"round(2.5)", 3},
		{"round(-2.5)", -2}, // round half toward +inf
		{"string-length('hello')", 5},
		{"number('12')", 12},
		{"number(true())", 1},
		{"6 mod 4", 2},
		{"8 div 2", 4},
	}
	for _, c := range numCases {
		if got := val(t, doc, c.expr).ToNumber(); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
	if !math.IsNaN(val(t, doc, "number('abc')").ToNumber()) {
		t.Error("number('abc') should be NaN")
	}
}

func TestIDFunction(t *testing.T) {
	doc := evalTree(t)
	if got := ids(sel(t, doc, "id('b2')")); got != "b2" {
		t.Errorf("id('b2') = %s", got)
	}
	if got := ids(sel(t, doc, "id('b1 b3')")); got != "b1,b3" {
		t.Errorf("id('b1 b3') = %s", got)
	}
	if got := ids(sel(t, doc, "id('b3')/title")); got != "title" {
		t.Errorf("id()/path = %s", got)
	}
}

func TestRelativeFromContextNode(t *testing.T) {
	doc := evalTree(t)
	shelf2 := sel(t, doc, "/lib/shelf[2]")[0]
	p := MustCompile("book/title")
	nodes, err := p.Select(shelf2)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("relative select: %v %v", nodes, err)
	}
	// Absolute path ignores the context node's position.
	p = MustCompile("/lib/magazine")
	nodes, err = p.Select(shelf2)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("absolute from inner context: %v %v", nodes, err)
	}
	// ".." from a book is its shelf.
	book := sel(t, doc, "//book[@id='b3']")[0]
	nodes, _ = MustCompile("..").Select(book)
	if len(nodes) != 1 || nodes[0].Name != "shelf" {
		t.Errorf(".. = %v", nodes)
	}
}

func TestBareSlashSelectsRoot(t *testing.T) {
	doc := evalTree(t)
	nodes := sel(t, doc, "/")
	if len(nodes) != 1 || nodes[0].Type != dom.DocumentNode {
		t.Errorf("/ selected %v", nodes)
	}
}

func TestMatches(t *testing.T) {
	doc := evalTree(t)
	book := sel(t, doc, "//book[@id='b2']")[0]
	p := MustCompile("//book[@year=2000]")
	ok, err := p.Matches(doc.Node, book)
	if err != nil || !ok {
		t.Errorf("Matches = %v, %v; want true", ok, err)
	}
	other := sel(t, doc, "//book[@id='b1']")[0]
	ok, _ = p.Matches(doc.Node, other)
	if ok {
		t.Error("b1 should not match year=2000")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"/lib/",
		"//",
		"]x",
		"book[",
		"book[]",
		"book[@]",
		"@",
		"foo(",
		"unknownfn()",
		"count()",            // arity
		"count(1,2)",         // arity
		"concat('a')",        // arity
		"not()",              // arity
		"translate('a','b')", // arity
		"'unterminated",
		"book bad", // operator expected
		"1 +",
		"(1",
		"$var",
		"child::",
		"bogus::x",
		"processing-instruction('x' 'y')",
		"a | 3", // union needs node-sets (runtime? compile ok)
	}
	doc := evalTree(t)
	for _, e := range bad {
		p, err := Compile(e)
		if err != nil {
			continue
		}
		// Some are only detectable at evaluation time.
		if _, err := p.Eval(doc.Node); err == nil {
			t.Errorf("Compile+Eval(%q) should fail", e)
		}
	}
}

func TestEvalTypeErrors(t *testing.T) {
	doc := evalTree(t)
	for _, e := range []string{"count(1)", "sum('x')", "3/book", "'s'/x"} {
		p, err := Compile(e)
		if err != nil {
			continue
		}
		if _, err := p.Eval(doc.Node); err == nil {
			t.Errorf("Eval(%q) should fail", e)
		}
	}
}

func TestSelectRejectsNonNodeSet(t *testing.T) {
	doc := evalTree(t)
	p := MustCompile("count(//book)")
	if _, err := p.SelectDoc(doc); err == nil {
		t.Error("Select of a number expression should fail")
	}
}

func TestNodeSetComparisons(t *testing.T) {
	doc := evalTree(t)
	cases := []struct {
		expr string
		want bool
	}{
		{"//book/@year = 1998", true},  // existential
		{"//book/@year != 1998", true}, // some year differs
		{"//ghost = 'x'", false},       // empty set
		{"//ghost != 'x'", false},      // still empty
		{"//book/@year = //book/@year", true},
		{"//book = //magazine", false},
		{"//book/@id = boolean(1)", true}, // node-set vs boolean via boolean()
		{"//ghost = false()", true},
		{"count(//book) > count(//shelf)", true},
		{"//book/@year > 1999", true},
		{"//book/@year < 1999", true},
	}
	for _, c := range cases {
		if got := val(t, doc, c.expr).ToBool(); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestCanonicalString(t *testing.T) {
	p := MustCompile(`/lib//book[@year=2000][2]/title`)
	s := p.String()
	for _, frag := range []string{"child::lib", "descendant-or-self::node()", "attribute::year", "child::title"} {
		if !strings.Contains(s, frag) {
			t.Errorf("canonical form %q missing %q", s, frag)
		}
	}
	if p.Source() != `/lib//book[@year=2000][2]/title` {
		t.Error("Source() should return the original text")
	}
}

func TestNumberFormat(t *testing.T) {
	cases := map[float64]string{
		1:          "1",
		-42:        "-42",
		2.5:        "2.5",
		0:          "0",
		1e15:       "1e+15",
		math.NaN(): "NaN",
	}
	for f, want := range cases {
		if got := formatNumber(f); got != want {
			t.Errorf("formatNumber(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestFollowingPrecedingAxes(t *testing.T) {
	doc := evalTree(t)
	cases := []struct {
		expr, want string
	}{
		// following: everything after in document order, minus
		// descendants and ancestors.
		{"//book[@id='b1']/following::book", "b2,b3"},
		{"//book[@id='b2']/following::*", "shelf,b3,title,author,m1"},
		{"//shelf[1]/following::magazine", "m1"},
		{"//magazine/following::*", ""},
		// preceding: everything before, minus ancestors.
		{"//book[@id='b3']/preceding::book", "b1,b2"},
		{"//book[@id='b1']/preceding::*", ""},
		{"//magazine/preceding::shelf", "shelf,shelf"},
		// proximity positions: preceding counts backwards.
		{"//book[@id='b3']/preceding::book[1]", "b2"},
		{"//book[@id='b3']/following::*[1]", "m1"},
		// from an attribute, the axes are those of its element.
		{"//book[@id='b3']/@year/preceding::book[1]", "b2"},
	}
	for _, c := range cases {
		got := ids(sel(t, doc, c.expr))
		if got != c.want {
			t.Errorf("%q = %q, want %q", c.expr, got, c.want)
		}
	}
}

// TestAxesPartitionDocument: self ∪ ancestor ∪ descendant ∪ following
// ∪ preceding covers every non-attribute node exactly once (the XPath
// 1.0 partition property).
func TestAxesPartitionDocument(t *testing.T) {
	doc := evalTree(t)
	all, err := xpathSelectAll(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range all {
		seen := map[*dom.Node]int{}
		for _, axis := range []string{"self::node()", "ancestor::node()", "descendant::node()", "following::node()", "preceding::node()"} {
			p := MustCompile(axis)
			nodes, err := p.Select(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range nodes {
				seen[m]++
			}
		}
		for _, m := range all {
			if m.Type == dom.DocumentNode {
				continue
			}
			if seen[m] != 1 && !(m == n.Root() && seen[m] <= 1) {
				t.Fatalf("node %s seen %d times from %s", m.Path(), seen[m], n.Path())
			}
		}
	}
}

// xpathSelectAll returns all element and text nodes of the document.
func xpathSelectAll(doc *dom.Document) ([]*dom.Node, error) {
	p := MustCompile("//node()")
	nodes, err := p.SelectDoc(doc)
	if err != nil {
		return nil, err
	}
	return nodes, nil
}
