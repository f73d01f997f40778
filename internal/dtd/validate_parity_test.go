package dtd_test

import (
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// parityDTD declares every kind of content model and every attribute
// type the validator checks, so mutated documents reach each error.
const parityDTD = `<!ELEMENT root (item+, (note | box)?, any*)>
<!ATTLIST root version CDATA #REQUIRED>
<!ELEMENT item (#PCDATA | em)*>
<!ATTLIST item
	id    ID       #REQUIRED
	ref   IDREF    #IMPLIED
	refs  IDREFS   #IMPLIED
	tok   NMTOKEN  #IMPLIED
	toks  NMTOKENS #IMPLIED
	pic   ENTITY   #IMPLIED
	pics  ENTITIES #IMPLIED
	fmt   NOTATION (gif|png) #IMPLIED
	kind  (a|b)    "a"
	fix   CDATA    #FIXED "1">
<!ELEMENT em (#PCDATA)>
<!ELEMENT note EMPTY>
<!ELEMENT box (em, em?)>
<!ELEMENT any ANY>
<!NOTATION gif SYSTEM "gif">
<!ENTITY logo SYSTEM "logo.gif" NDATA gif>
<!ENTITY text "t">
`

// FuzzValidateParity holds Validate, which checks a document's arena,
// to the tree-walking validator it replaced (RefValidate), kept in test
// code: on any document and DTD that parse, both must report the same
// errors in the same order, message and path included, for the parsed
// arena-only document and for a tree flattened by ReadArena.
func FuzzValidateParity(f *testing.F) {
	for _, cfg := range []workload.DocConfig{
		{Depth: 2, Fanout: 2, Attrs: 1, Seed: 1},
		{Depth: 3, Fanout: 3, Attrs: 2, Labels: 2, Seed: 2},
		{Depth: 4, Fanout: 2, Attrs: 0, Seed: 3},
	} {
		f.Add(workload.GenDocument(cfg).String(), workload.GenDTD(cfg).String(), "root", false)
	}
	for _, doc := range []string{
		`<root version="1"><item id="i1">x<em>y</em></item><note/></root>`,
		`<root><bogus/><item id="1 2" kind="z" fix="2">x</item><note>t</note></root>`,
		`<root version="1"><item id="d" ref="m" refs="d q"/><item id="d" tok="a b" toks=""/><box/></root>`,
		`<root version="1"><item id="i" pic="logo" pics="logo text" fmt="png"/><any><em/><ghost/></any></root>`,
		`<root version="1"><item id="i"><note/></item>text<box><em/><em/><em/></box></root>`,
		`<item id="i"/>`,
	} {
		f.Add(doc, parityDTD, "root", false)
		f.Add(doc, parityDTD, "", true)
	}
	f.Fuzz(func(t *testing.T, src, dtdSrc, name string, ignoreIDs bool) {
		d, err := dtd.Parse(dtdSrc)
		if err != nil {
			return
		}
		d.Name = name
		res, err := xmlparse.Parse(src, xmlparse.Options{KeepComments: true})
		if err != nil {
			return
		}
		opts := dtd.ValidateOptions{IgnoreIDs: ignoreIDs}
		want := dtd.RefValidate(d, res.Doc.ReadTree(), opts)
		for _, doc := range []*dom.Document{res.Doc, res.Doc.ReadTree()} {
			got := d.Validate(doc, opts)
			if len(got) != len(want) {
				t.Fatalf("arena validator reports %d errors, tree reference %d:\narena: %v\ntree:  %v", len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].Error() != want[i].Error() {
					t.Fatalf("error %d differs:\narena: %s\ntree:  %s", i, got[i], want[i])
				}
			}
		}
	})
}
