package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEscapeText(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		"a<b":        "a&lt;b",
		"a>b":        "a&gt;b",
		"a&b":        "a&amp;b",
		"a\rb":       "a&#13;b",
		`quote"keep`: `quote"keep`,
	}
	for in, want := range cases {
		if got := EscapeText(in); got != want {
			t.Errorf("EscapeText(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeAttr(t *testing.T) {
	cases := map[string]string{
		"plain": "plain",
		`a"b`:   "a&quot;b",
		"a<b":   "a&lt;b",
		"a&b":   "a&amp;b",
		"a\tb":  "a&#9;b",
		"a\nb":  "a&#10;b",
		"a\rb":  "a&#13;b",
	}
	for in, want := range cases {
		if got := EscapeAttr(in); got != want {
			t.Errorf("EscapeAttr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestEscapeCleanInputNoAlloc pins the fast path: input with nothing to
// escape comes back as is, without allocating. Invalid UTF-8 is not
// clean: the rune loop replaces it with U+FFFD.
func TestEscapeCleanInputNoAlloc(t *testing.T) {
	for _, in := range []string{"", "plain", "Größe 42 €", `quote"keep'`} {
		if got := EscapeText(in); got != in {
			t.Errorf("EscapeText(%q) = %q", in, got)
		}
		if n := testing.AllocsPerRun(100, func() { EscapeText(in) }); n != 0 {
			t.Errorf("EscapeText(%q) made %.0f allocations, want 0", in, n)
		}
	}
	for _, in := range []string{"", "plain", "Größe 42 €", "a>b 'c'"} {
		if got := EscapeAttr(in); got != in {
			t.Errorf("EscapeAttr(%q) = %q", in, got)
		}
		if n := testing.AllocsPerRun(100, func() { EscapeAttr(in) }); n != 0 {
			t.Errorf("EscapeAttr(%q) made %.0f allocations, want 0", in, n)
		}
	}
	if got := EscapeText("a\xffb"); got != "a\uFFFDb" {
		t.Errorf("EscapeText of invalid UTF-8 = %q, want U+FFFD in place", got)
	}
	if got := EscapeAttr("a\xffb"); got != "a\uFFFDb" {
		t.Errorf("EscapeAttr of invalid UTF-8 = %q, want U+FFFD in place", got)
	}
}

func TestSerializeBasics(t *testing.T) {
	doc := NewDocument()
	a := NewElement("a")
	a.SetAttr("k", `v"<&`)
	a.AppendChild(NewText("x<y&z"))
	a.AppendChild(NewComment(" note "))
	a.AppendChild(NewProcInst("target", "data"))
	b := NewElement("b")
	a.AppendChild(b)
	doc.SetDocumentElement(a)
	got := doc.String()
	want := `<?xml version="1.0"?>` + "\n" +
		`<a k="v&quot;&lt;&amp;">x&lt;y&amp;z<!-- note --><?target data?><b/></a>`
	if got != want {
		t.Errorf("serialize:\n got %s\nwant %s", got, want)
	}
}

func TestSerializeCDATA(t *testing.T) {
	doc := NewDocument()
	a := NewElement("a")
	a.AppendChild(NewCDATA("raw <markup> & stuff"))
	doc.SetDocumentElement(a)
	got := doc.String()
	if !strings.Contains(got, "<![CDATA[raw <markup> & stuff]]>") {
		t.Errorf("CDATA serialization wrong: %s", got)
	}
}

func TestSerializeCDATAWithTerminator(t *testing.T) {
	doc := NewDocument()
	a := NewElement("a")
	a.AppendChild(NewCDATA("bad ]]> section"))
	doc.SetDocumentElement(a)
	got := doc.String()
	// The section must be split so that no literal "]]>" appears
	// inside CDATA content.
	if strings.Contains(got, "[CDATA[bad ]]> section]]>") {
		t.Errorf("unsplit CDATA terminator: %s", got)
	}
	if !strings.Contains(got, "]]") || strings.Count(got, "<![CDATA[") != 2 {
		t.Errorf("expected split CDATA sections: %s", got)
	}
}

func TestSerializeDocType(t *testing.T) {
	doc := NewDocument()
	doc.DocType = &DocType{Name: "a", SystemID: "a.dtd"}
	doc.SetDocumentElement(NewElement("a"))
	got := doc.String()
	if !strings.Contains(got, `<!DOCTYPE a SYSTEM "a.dtd">`) {
		t.Errorf("DOCTYPE missing: %s", got)
	}
	doc.DocType.PublicID = "-//X//Y//EN"
	got = doc.String()
	if !strings.Contains(got, `<!DOCTYPE a PUBLIC "-//X//Y//EN" "a.dtd">`) {
		t.Errorf("PUBLIC DOCTYPE wrong: %s", got)
	}
	var b strings.Builder
	if err := doc.Write(&b, WriteOptions{DocTypeSystemID: "loose.dtd", OmitDecl: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"loose.dtd"`) {
		t.Errorf("DocTypeSystemID override ignored: %s", b.String())
	}
}

func TestSerializeInternalSubset(t *testing.T) {
	doc := NewDocument()
	doc.DocType = &DocType{Name: "a", InternalSubset: "<!ELEMENT a EMPTY>"}
	doc.SetDocumentElement(NewElement("a"))
	if !strings.Contains(doc.String(), "<!DOCTYPE a [<!ELEMENT a EMPTY>]>") {
		t.Errorf("internal subset lost: %s", doc.String())
	}
}

func TestPrettyPrintElementContent(t *testing.T) {
	doc := NewDocument()
	a := NewElement("a")
	b := NewElement("b")
	b.AppendChild(NewText("inline text"))
	a.AppendChild(b)
	c := NewElement("c")
	a.AppendChild(c)
	doc.SetDocumentElement(a)
	got := doc.StringIndent("  ")
	want := "<a>\n  <b>inline text</b>\n  <c/>\n</a>"
	if got != want {
		t.Errorf("pretty print:\n got %q\nwant %q", got, want)
	}
}

func TestPrettyPrintPreservesMixedContent(t *testing.T) {
	doc := NewDocument()
	a := NewElement("a")
	a.AppendChild(NewText("mixed "))
	b := NewElement("b")
	b.AppendChild(NewText("bold"))
	a.AppendChild(b)
	a.AppendChild(NewText(" tail"))
	doc.SetDocumentElement(a)
	got := doc.StringIndent("  ")
	// Mixed content must not gain whitespace.
	want := "<a>mixed <b>bold</b> tail</a>"
	if got != want {
		t.Errorf("mixed content reformatted:\n got %q\nwant %q", got, want)
	}
}

func TestXMLDeclFields(t *testing.T) {
	doc := NewDocument()
	doc.Encoding = "UTF-8"
	doc.Standalone = "yes"
	doc.SetDocumentElement(NewElement("a"))
	got := doc.String()
	if !strings.HasPrefix(got, `<?xml version="1.0" encoding="UTF-8" standalone="yes"?>`) {
		t.Errorf("declaration wrong: %s", got)
	}
}

func TestMarkupString(t *testing.T) {
	a := NewElement("a")
	a.SetAttr("x", "1")
	a.AppendChild(NewText("t"))
	if got := MarkupString(a); got != `<a x="1">t</a>` {
		t.Errorf("MarkupString = %s", got)
	}
}

// TestEscapePropertyNoRawSpecials: escaped text never contains a raw
// '<' or unescaped '&', for any input.
func TestEscapePropertyNoRawSpecials(t *testing.T) {
	f := func(s string) bool {
		esc := EscapeText(s)
		if strings.ContainsAny(esc, "<") {
			return false
		}
		aesc := EscapeAttr(s)
		return !strings.ContainsAny(aesc, `<"`)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
