package xmlparse

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"xmlsec/internal/dom"
)

func parseOK(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := Parse(src, opts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return res
}

func TestParseMinimal(t *testing.T) {
	res := parseOK(t, `<a/>`, Options{})
	root := res.Doc.DocumentElement()
	if root == nil || root.Name != "a" || len(root.Children) != 0 {
		t.Fatalf("bad root: %+v", root)
	}
}

func TestParseNestedAndText(t *testing.T) {
	res := parseOK(t, `<a><b>hello</b><c>world</c></a>`, Options{})
	root := res.Doc.DocumentElement()
	if len(root.ChildElements()) != 2 {
		t.Fatalf("want 2 child elements")
	}
	if root.Text() != "helloworld" {
		t.Errorf("Text = %q", root.Text())
	}
}

func TestParseAttributes(t *testing.T) {
	res := parseOK(t, `<a x="1" y='2' z="a&amp;b"/>`, Options{})
	root := res.Doc.DocumentElement()
	for k, want := range map[string]string{"x": "1", "y": "2", "z": "a&b"} {
		if v, ok := root.Attr(k); !ok || v != want {
			t.Errorf("attr %s = %q (%v), want %q", k, v, ok, want)
		}
	}
}

func TestAttributeValueNormalization(t *testing.T) {
	res := parseOK(t, "<a x=\"l1\nl2\tl3\"/>", Options{})
	if v, _ := res.Doc.DocumentElement().Attr("x"); v != "l1 l2 l3" {
		t.Errorf("whitespace not normalized: %q", v)
	}
}

func TestCharReferences(t *testing.T) {
	res := parseOK(t, `<a>&#65;&#x42;&lt;&gt;&amp;&apos;&quot;</a>`, Options{})
	if got := res.Doc.DocumentElement().Text(); got != `AB<>&'"` {
		t.Errorf("references = %q", got)
	}
}

func TestCDATASection(t *testing.T) {
	res := parseOK(t, `<a><![CDATA[<not>&markup;]]></a>`, Options{})
	root := res.Doc.DocumentElement()
	if len(root.Children) != 1 || root.Children[0].Type != dom.CDATANode {
		t.Fatalf("CDATA node missing: %+v", root.Children)
	}
	if root.Text() != "<not>&markup;" {
		t.Errorf("CDATA content = %q", root.Text())
	}
}

func TestCommentsDroppedByDefault(t *testing.T) {
	res := parseOK(t, `<a><!-- note --><b/></a>`, Options{})
	for _, c := range res.Doc.DocumentElement().Children {
		if c.Type == dom.CommentNode {
			t.Error("comment kept without KeepComments")
		}
	}
	res = parseOK(t, `<a><!-- note --><b/></a>`, Options{KeepComments: true})
	found := false
	for _, c := range res.Doc.DocumentElement().Children {
		if c.Type == dom.CommentNode && c.Data == " note " {
			found = true
		}
	}
	if !found {
		t.Error("comment lost with KeepComments")
	}
}

func TestProcessingInstruction(t *testing.T) {
	res := parseOK(t, `<?go fmt?><a><?stylesheet href="x"?></a>`, Options{})
	prolog := res.Doc.ReadTree().Node.Children[0]
	if prolog.Type != dom.ProcessingInstructionNode || prolog.Name != "go" || prolog.Data != "fmt" {
		t.Errorf("prolog PI wrong: %+v", prolog)
	}
	inner := res.Doc.DocumentElement().Children[0]
	if inner.Type != dom.ProcessingInstructionNode || inner.Name != "stylesheet" {
		t.Errorf("inner PI wrong: %+v", inner)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b>x</b>\n</a>"
	res := parseOK(t, src, Options{})
	if len(res.Doc.DocumentElement().Children) != 1 {
		t.Error("whitespace-only text should be dropped by default")
	}
	res = parseOK(t, src, Options{KeepWhitespace: true})
	if len(res.Doc.DocumentElement().Children) != 3 {
		t.Error("KeepWhitespace should retain whitespace text nodes")
	}
}

func TestXMLDeclParsed(t *testing.T) {
	res := parseOK(t, `<?xml version="1.1" encoding="UTF-8" standalone="no"?><a/>`, Options{})
	if res.Doc.Version != "1.1" || res.Doc.Encoding != "UTF-8" || res.Doc.Standalone != "no" {
		t.Errorf("decl = %q %q %q", res.Doc.Version, res.Doc.Encoding, res.Doc.Standalone)
	}
}

func TestInternalSubsetEntities(t *testing.T) {
	src := `<!DOCTYPE a [
		<!ENTITY who "world">
		<!ENTITY greet "hello &who;">
	]><a>&greet;!</a>`
	res := parseOK(t, src, Options{})
	if got := res.Doc.DocumentElement().Text(); got != "hello world!" {
		t.Errorf("entity expansion = %q", got)
	}
}

func TestEntityWithMarkup(t *testing.T) {
	src := `<!DOCTYPE a [
		<!ENTITY frag "<b>inner</b>">
	]><a>&frag;</a>`
	res := parseOK(t, src, Options{})
	b := res.Doc.DocumentElement().FirstChildElement("b")
	if b == nil || b.Text() != "inner" {
		t.Fatalf("markup entity not parsed in place: %s", res.Doc.String())
	}
}

func TestEntityInAttributeValue(t *testing.T) {
	src := `<!DOCTYPE a [<!ENTITY co "ACME &amp; sons">]><a name="&co;"/>`
	res := parseOK(t, src, Options{})
	if v, _ := res.Doc.DocumentElement().Attr("name"); v != "ACME & sons" {
		t.Errorf("attr entity = %q", v)
	}
}

func TestEntityRecursionRejected(t *testing.T) {
	src := `<!DOCTYPE a [
		<!ENTITY x "<b>&y;</b>">
		<!ENTITY y "<c>&x;</c>">
	]><a>&x;</a>`
	if _, err := Parse(src, Options{}); err == nil {
		t.Error("recursive entities should be rejected")
	}
}

func TestExternalDTDViaLoader(t *testing.T) {
	loader := MapLoader{"a.dtd": `<!ELEMENT a (b)><!ELEMENT b EMPTY><!ATTLIST b k CDATA "dflt">`}
	res := parseOK(t, `<!DOCTYPE a SYSTEM "a.dtd"><a><b/></a>`, Options{Loader: loader, ApplyDefaults: true})
	if res.DTD == nil || res.DTD.Element("a") == nil {
		t.Fatal("external DTD not loaded")
	}
	b := res.Doc.DocumentElement().FirstChildElement("b")
	if v, ok := b.Attr("k"); !ok || v != "dflt" {
		t.Errorf("default attribute not applied: %q %v", v, ok)
	}
	if !b.AttrNode("k").Defaulted {
		t.Error("defaulted attribute should be marked")
	}
}

func TestInternalSubsetOverridesExternal(t *testing.T) {
	loader := MapLoader{"a.dtd": `<!ENTITY v "external">`}
	src := `<!DOCTYPE a SYSTEM "a.dtd" [<!ENTITY v "internal">]><a>&v;</a>`
	res := parseOK(t, src, Options{Loader: loader})
	if got := res.Doc.DocumentElement().Text(); got != "internal" {
		t.Errorf("precedence wrong: %q", got)
	}
}

func TestMissingLoaderSkipsExternal(t *testing.T) {
	res := parseOK(t, `<!DOCTYPE a SYSTEM "missing.dtd"><a/>`, Options{})
	if res.DTD == nil {
		t.Fatal("DTD should exist (empty) even without loader")
	}
	if res.Doc.DocType.SystemID != "missing.dtd" {
		t.Error("SystemID lost")
	}
}

func TestDocumentOrderAssigned(t *testing.T) {
	res := parseOK(t, `<a x="1"><b/><c y="2"/></a>`, Options{})
	var orders []int
	res.Doc.Walk(func(n *dom.Node) bool {
		orders = append(orders, n.Order)
		return true
	})
	for i := 1; i < len(orders); i++ {
		if orders[i] <= orders[i-1] {
			t.Fatalf("orders not strictly increasing: %v", orders)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		``,                       // no root
		`<a>`,                    // unterminated
		`<a></b>`,                // mismatched tags
		`<a x="1" x="2"/>`,       // duplicate attribute
		`<a x=1/>`,               // unquoted attribute
		`<a><b></a></b>`,         // improper nesting
		`<a/><b/>`,               // two roots
		`<a>&undefined;</a>`,     // unknown entity
		`<a>&#xZZ;</a>`,          // bad char ref
		`<a><!-- -- --></a>`,     // double hyphen in comment
		`<a><![CDATA[x</a>`,      // unterminated CDATA
		`<a>]]></a>`,             // CDEnd in content
		`<a b="<"/>`,             // '<' in attribute
		`text<a/>`,               // content before root
		`<a/>trailing`,           // content after root
		`<?xml version="1.0"?>x`, // no element
		`<a><?xml bad?></a>`,     // reserved PI target
		`<!DOCTYPE a [<!ENTITY>`, // malformed doctype
		"<a>\x00</a>",            // NUL is not XML... (accepted as text?)
	}
	for _, src := range cases[:len(cases)-1] {
		if _, err := Parse(src, Options{}); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestErrorPositions pins where errors are reported. Lines split at
// LF; the column counts bytes, not characters, from 1; and text an
// entity reference splices into the input counts as if it were there.
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		name, src string
		line, col int
		msg       string
	}{
		{"mismatched end tag", "<a>\n  <b>\n</a>", 3, 4, "mismatched end tag: expected </b>, got </a>"},
		{"after multi-byte characters", "<a>éé<</a>", 1, 9, "expected name"},
		{"after CRLF", "<a>\r\n<b>\r\n</a>", 3, 4, "mismatched end tag: expected </b>, got </a>"},
		{"inside a splice with newlines", `<!DOCTYPE a [<!ENTITY e "x&#10;<b>&#10;">]><a>&e;</a>`, 3, 4,
			"mismatched end tag: expected </b>, got </a>"},
		{"after newlines in the subset and the splice", "<!DOCTYPE a [<!ENTITY e \"x\n<b>\n\">]><a>&e;</a>", 5, 4,
			"mismatched end tag: expected </b>, got </a>"},
		{"at EOF", "<a>\n<b>", 2, 4, `unexpected end of input inside element "b"`},
		{"in an attribute value", "<a x='1\n2' y='é<'/>", 2, 9, "'<' not allowed in attribute value"},
		{"after the document element", "<a>\n<b/></a>\n<c/>", 3, 1, `content after document element: "<c/>"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src, Options{})
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Errorf("%s: want *SyntaxError, got %T (%v)", c.name, err, err)
			continue
		}
		if se.Line != c.line || se.Col != c.col || se.Msg != c.msg {
			t.Errorf("%s: got line %d col %d %q, want line %d col %d %q",
				c.name, se.Line, se.Col, se.Msg, c.line, c.col, c.msg)
		}
		if want := fmt.Sprintf("line %d col %d", c.line, c.col); !strings.Contains(se.Error(), want) {
			t.Errorf("%s: Error() should mention %q: %v", c.name, want, se)
		}
	}
}

// TestMaxDepth pins the nesting bound: MaxDepth levels parse, one more
// is a SyntaxError at the start tag that exceeds it.
func TestMaxDepth(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	if _, err := Parse(nest(MaxDepth), Options{}); err != nil {
		t.Fatalf("%d levels: %v", MaxDepth, err)
	}
	_, err := Parse(nest(MaxDepth+1), Options{})
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("%d levels: want *SyntaxError, got %T (%v)", MaxDepth+1, err, err)
	}
	if se.Line != 1 || se.Col != 3*MaxDepth+1 || !strings.Contains(se.Msg, "nesting exceeds") {
		t.Errorf("%d levels: %v, want the depth bound at col %d", MaxDepth+1, se, 3*MaxDepth+1)
	}
}

// TestRoundTrip: parse → serialize → parse yields an identical tree.
func TestRoundTrip(t *testing.T) {
	docs := []string{
		`<a/>`,
		`<a x="1" y="a&amp;b"><b>text</b><c/><d>x&lt;y</d></a>`,
		`<a><![CDATA[raw <stuff>]]><b>mixed</b>tail</a>`,
		`<a><b><c><d>deep</d></c></b></a>`,
	}
	for _, src := range docs {
		r1 := parseOK(t, src, Options{KeepWhitespace: true})
		out := r1.Doc.String()
		r2 := parseOK(t, out, Options{KeepWhitespace: true})
		if r1.Doc.StringIndent("") != r2.Doc.StringIndent("") {
			t.Errorf("round trip of %q:\n first %s\nsecond %s", src, r1.Doc.StringIndent(""), r2.Doc.StringIndent(""))
		}
	}
}

func TestParseFileAndFileLoader(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/a.dtd", `<!ELEMENT a EMPTY>`)
	writeFile(t, dir+"/doc.xml", `<!DOCTYPE a SYSTEM "a.dtd"><a/>`)
	res, err := ParseFile(dir+"/doc.xml", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DTD == nil || res.DTD.Element("a") == nil {
		t.Error("relative external DTD not loaded via FileLoader")
	}
	if _, err := ParseFile(dir+"/nope.xml", Options{}); err == nil {
		t.Error("missing file should error")
	}
	if _, err := (MapLoader{}).LoadDTD("x"); err == nil {
		t.Error("MapLoader miss should error")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse(`<a>`, Options{})
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := writeFileErr(path, content); err != nil {
		t.Fatal(err)
	}
}

func writeFileErr(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestByteOrderMark(t *testing.T) {
	res := parseOK(t, "\xef\xbb\xbf<?xml version=\"1.0\"?><a>x</a>", Options{})
	if res.Doc.DocumentElement().Text() != "x" {
		t.Error("BOM-prefixed document mis-parsed")
	}
}
