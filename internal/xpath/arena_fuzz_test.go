package xpath

import (
	"testing"

	"xmlsec/internal/xmlparse"
)

// FuzzArenaXPathParity is the arena/tree differential for the query
// layer: for any expression the compiler accepts, evaluated over a
// corpus of arena-carrying documents, the arena route (with no mask)
// and the pointer tree must agree — same error-ness, same index set,
// same document order.
func FuzzArenaXPathParity(f *testing.F) {
	seeds := []string{
		`/a/b`,
		`//b[@k='v']`,
		`//b/@k`,
		`//*[text()]`,
		`//b[1] | //c[last()]`,
		`//b[position() mod 2 = 1]`,
		`//c[count(b) > 0]/@k`,
		`//node()[string-length(.) > 1]`,
		`//b[contains(., 'x') or starts-with(@k, 'v')]`,
		`//processing-instruction()`,
		`descendant-or-self::b/self::*`,
		`//b[substring(@k, 1, 1) = 'v']`,
		`//c[sum(b) >= 0]`,
		`//b[translate(@k, 'v', 'w') = 'w']`,
		`//b/..`,
		`//b/ancestor::a`,
		`(//b)[2]`,
		`id('n1')`,
		`//b/following-sibling::c`,
		`//d/ancestor-or-self::*[2]`,
		`//b/preceding-sibling::node()[1]`,
		`//d/following::node()`,
		`//d/preceding::*[last()]`,
		`//@k/following::text()`,
		`//@k/preceding::b`,
		`//@id/..`,
		`(//b | //c)[position() < 3]/@k`,
		`(//text())[last()]/parent::*`,
		`id('n1 n2')/b`,
		`id(//@id)[2]`,
		`//b[id('n2')]/ancestor::*`,
		`//c[preceding-sibling::b[1]/@k = 'v']`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	docs := []string{
		`<a k="v"><b k="v">x</b><c><b>y</b><b k="w"/></c></a>`,
		`<a id="n1"><b id="n2"><b/></b><!--c--><?p i?><c>1<d>2</d>3</c></a>`,
		`<a><b><![CDATA[x]]></b><b>  spaced  text </b><c k="1.5"/><c k="NaN"/></a>`,
	}
	type parsed struct {
		src string
		res *xmlparse.Result
	}
	corpus := make([]parsed, 0, len(docs))
	for _, d := range docs {
		corpus = append(corpus, parsed{src: d, res: xmlparse.MustParse(d, xmlparse.Options{})})
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Compile(expr)
		if err != nil {
			return
		}
		for _, d := range corpus {
			treeNodes, treeErr := p.SelectDoc(d.res.Doc)
			idx, viaArena, idxErr := p.SelectIndexes(d.res.Doc)
			if (treeErr == nil) != (idxErr == nil) {
				t.Fatalf("%q over %q: tree err %v, index err %v (viaArena=%v)",
					expr, d.src, treeErr, idxErr, viaArena)
			}
			if treeErr != nil {
				continue
			}
			if len(idx) != len(treeNodes) {
				t.Fatalf("%q over %q: arena route selected %d nodes, tree %d (viaArena=%v)\narena: %v",
					expr, d.src, len(idx), len(treeNodes), viaArena, idx)
			}
			for i, n := range treeNodes {
				if idx[i] != int32(n.Order) {
					t.Fatalf("%q over %q: index %d is %d, tree order %d (viaArena=%v)",
						expr, d.src, i, idx[i], n.Order, viaArena)
				}
			}
		}
	})
}
