package dom_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/xmlparse"
)

// fuzzViewMask draws an upward-closed mask over the arena, as view
// masks are: a node is visible only under a visible parent. Some
// subtrees are kept whole (the ones a ViewText references), others in
// part (written into its literal).
func fuzzViewMask(ar *dom.Arena, rng *rand.Rand) dom.Bitmask {
	m := dom.NewBitmask(ar.Len())
	m.Set(0)
	var keep func(i int32)
	keep = func(i int32) {
		if ar.Kind(i) == dom.ElementNode && rng.Intn(3) == 0 {
			m.SetRange(int(i), int(ar.SubtreeEnd(i)))
			return
		}
		m.Set(int(i))
		s, e := ar.Attrs(i)
		for a := s; a < e; a++ {
			if rng.Intn(2) == 0 {
				m.Set(int(a))
			}
		}
		for c := ar.FirstChild(i); c >= 0; c = ar.NextSibling(c) {
			if rng.Intn(4) != 0 {
				keep(c)
			}
		}
	}
	for c := ar.FirstChild(0); c >= 0; c = ar.NextSibling(c) {
		keep(c)
	}
	return m
}

// checkViewText asserts that t holds exactly want, through every way
// of reading it.
func checkViewText(t *testing.T, vt dom.ViewText, want string) {
	t.Helper()
	if vt.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", vt.Len(), len(want))
	}
	if got := vt.String(); got != want {
		t.Fatalf("String() differs from Document.Write:\n--- text ---\n%s\n--- write ---\n%s", got, want)
	}
	var b bytes.Buffer
	if n, err := vt.WriteTo(&b); err != nil || n != int64(len(want)) || b.String() != want {
		t.Fatalf("WriteTo = %d, %v:\n%s\nwant:\n%s", n, err, b.String(), want)
	}
}

// FuzzViewTextParity: for a fuzzed document and an upward-closed mask
// drawn from a fuzzed seed, the ViewText's bytes equal the masked
// Document.Write output and the pruned copy's write, under the serve
// indent (where subtrees are references) and the other options (where
// the text is all literal).
func FuzzViewTextParity(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1"><b>t</b><!--c--><?p d?><![CDATA[e]]></a>`,
		`<r><a p="1"><b>t1</b><c q="2">t2<d/></c></a><e>t3</e></r>`,
		`<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a x CDATA "dflt">]><a><a x="set"/></a>`,
		`<r><a x="&amp;&lt;&quot;'&#9;&#10;">t &amp; &lt; "q" &gt;<b y="1&amp;2">&amp;</b></a><c>plain<d z="p"/></c></r>`,
		`<!--pro & log--><?top x & y?><r a="&quot;&quot;">"&amp;"<s><t u="&lt;">&lt;&gt;</t></s></r>`,
		"<r>\n  <s k=\"1\">\n    <t>x</t>\n    <t>y</t>\n  </s>\n  <s k=\"2\"><t/>mixed<t/></s>\n</r>",
		strings.Repeat("<a><b/>", 20) + strings.Repeat("</a>", 20),
	}
	for i, s := range seeds {
		f.Add(s, int64(i*31))
	}
	f.Fuzz(func(t *testing.T, input string, maskSeed int64) {
		res, err := xmlparse.Parse(input, xmlparse.Options{
			KeepWhitespace: true, KeepComments: true, ApplyDefaults: true,
		})
		if err != nil {
			return
		}
		doc := res.Doc
		ar := doc.ReadArena()
		mask := fuzzViewMask(ar, rand.New(rand.NewSource(maskSeed)))
		pruned := ar.MaterializeMasked(mask)
		for _, opts := range []dom.WriteOptions{
			{Indent: dom.ServeIndent},
			{Indent: dom.ServeIndent, OmitDecl: true, DocTypeSystemID: "view.dtd"},
			{Indent: dom.ServeIndent, OmitDocType: true},
			{},
			{Indent: "\t"},
		} {
			var want, tree strings.Builder
			if err := pruned.Write(&tree, opts); err != nil {
				t.Fatal(err)
			}
			opts.Mask = mask
			if err := doc.Write(&want, opts); err != nil {
				t.Fatal(err)
			}
			if want.String() != tree.String() {
				t.Fatalf("masked write differs from the pruned copy (indent %q):\n%s\n---\n%s", opts.Indent, want.String(), tree.String())
			}
			checkViewText(t, doc.ViewText(opts), want.String())
		}
		// Unmasked: the whole document, all literal.
		var whole strings.Builder
		if err := doc.Write(&whole, dom.WriteOptions{Indent: dom.ServeIndent}); err != nil {
			t.Fatal(err)
		}
		checkViewText(t, doc.ViewText(dom.WriteOptions{Indent: dom.ServeIndent}), whole.String())
	})
}

// TestViewTextReferencesRendering: a view whose document element is
// fully visible holds one reference and the prolog, not a copy of the
// document; a view hiding one leaf keeps every other subtree as a
// reference, so it holds far less than its length.
func TestViewTextReferencesRendering(t *testing.T) {
	var src strings.Builder
	src.WriteString("<r>")
	for i := 0; i < 50; i++ {
		src.WriteString(`<s k="1"><t>some text</t><t>more text</t></s>`)
	}
	src.WriteString("</r>")
	res, err := xmlparse.Parse(src.String(), xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Doc
	n := doc.NodeCount()
	opts := dom.WriteOptions{Indent: dom.ServeIndent, OmitDecl: true}
	for _, tc := range []struct {
		name     string
		hidden   int // nodes hidden at the end of the document
		resident int // at most this many bytes per 100 of the text
	}{{"full", 0, 1}, {"last leaf hidden", 2, 25}} {
		mask := dom.NewBitmask(n)
		mask.SetRange(0, n-tc.hidden)
		opts.Mask = mask
		var want strings.Builder
		if err := doc.Write(&want, opts); err != nil {
			t.Fatal(err)
		}
		vt := doc.ViewText(opts)
		checkViewText(t, vt, want.String())
		if 100*vt.Resident() > tc.resident*vt.Len() {
			t.Errorf("%s: the text holds %d bytes of its own for its %d bytes, want at most %d%%", tc.name, vt.Resident(), vt.Len(), tc.resident)
		}
	}
}

// TestViewTextMergesOnlyEqualBytes: two fully visible siblings share
// one reference only when the view's bytes between them are the
// rendering's. Here the hidden text between them is exactly as long as
// the indentation the view writes in its place.
func TestViewTextMergesOnlyEqualBytes(t *testing.T) {
	res, err := xmlparse.Parse("<r><s/>abc<s/></r>", xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Doc
	mask := dom.NewBitmask(doc.NodeCount())
	for _, i := range []int{0, 1, 2, 4} { // all but the text "abc"
		mask.Set(i)
	}
	opts := dom.WriteOptions{Indent: dom.ServeIndent, OmitDecl: true, Mask: mask}
	var want strings.Builder
	if err := doc.Write(&want, opts); err != nil {
		t.Fatal(err)
	}
	if want.String() != "<r>\n  <s/>\n  <s/>\n</r>\n" {
		t.Fatalf("masked write = %q", want.String())
	}
	checkViewText(t, doc.ViewText(opts), want.String())
}
