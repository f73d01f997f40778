package xpath

import (
	"reflect"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/xmlparse"
)

// arenaTestDoc is a small document exercising every node kind the
// arena evaluator can test for: nested elements, attributes, text,
// CDATA, comments and processing instructions.
const arenaTestDoc = `<?xml version="1.0"?><lab name="crypto"><project type="internal" id="p1"><name>alpha</name><fund amount="100">seed</fund></project><project type="public" id="p2"><name>beta</name><!-- note --><?track on?><data><![CDATA[x<y]]></data></project><misc/></lab>`

func parityDoc(t *testing.T, src string) *dom.Document {
	t.Helper()
	res, err := xmlparse.Parse(src, xmlparse.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res.Doc.ArenaIfBuilt() == nil {
		t.Fatal("parser built no arena")
	}
	return res.Doc
}

func treeOrders(t *testing.T, p *Path, doc *dom.Document) []int32 {
	t.Helper()
	nodes, err := p.SelectDoc(doc)
	if err != nil {
		t.Fatalf("tree eval %q: %v", p.Source(), err)
	}
	idx := make([]int32, len(nodes))
	for i, n := range nodes {
		idx[i] = int32(n.Order)
	}
	return idx
}

// TestSelectIndexesParity: on an arena document the arena route must run
// (viaArena true) for every axis, filter expression and function, and
// return exactly the tree evaluator's index set.
func TestSelectIndexesParity(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	exprs := []string{
		`/`,
		`/lab`,
		`/lab/project`,
		`/lab/project/name`,
		`//name`,
		`//project[@type='internal']`,
		`//project[@type='internal']//text()`,
		`//project/@id`,
		`//@*`,
		`//*`,
		`//node()`,
		`//comment()`,
		`//processing-instruction()`,
		`//processing-instruction('track')`,
		`//project[2]`,
		`//project[last()]`,
		`//project[position() > 1]/name`,
		`//fund[@amount > 50]`,
		`//fund[. = 'seed']`,
		`//project[name]`,
		`//project[not(@type='public')]`,
		`//project[count(name) = 1]`,
		`//project[starts-with(@id, 'p')]`,
		`//data | //misc`,
		`/lab/@name | //fund/@amount`,
		`//project[string-length(name) = 5]`,
		`//*[text()]`,
		`descendant::name`,
		`self::node()`,
		// Reverse and sibling axes.
		`//name/..`,
		`//name/parent::project`,
		`//fund/ancestor::*`,
		`//fund/ancestor-or-self::node()`,
		`//fund/ancestor::*[1]`,
		`//fund/ancestor::*[last()]`,
		`//project/following-sibling::*`,
		`//misc/preceding-sibling::*[1]`,
		`//misc/preceding-sibling::project[last()]/@id`,
		`//name/following::*`,
		`//name/following::text()[2]`,
		`//data/preceding::*`,
		`//data/preceding::node()[3]`,
		`//fund/@amount/following::node()`,
		`//fund/@amount/preceding::*`,
		`//@id/..`,
		`//@type/ancestor::lab`,
		`//@id/following-sibling::*`,
		`/..`,
		`//project[../misc]`,
		// Filter expressions.
		`(//project)[1]`,
		`(//project)[last()]/name`,
		`(//name | //fund)[2]`,
		`(//*)[position() > 3][2]`,
		`(//project//text())[1]/..`,
		// id().
		`id('p1')`,
		`id('p2 p1 nope')/name`,
		`id(//project/@id)`,
		`//project[id('p2')]`,
		`id('p1')[name]`,
	}
	for _, src := range exprs {
		p := MustCompile(src)
		got, viaArena, err := p.SelectIndexes(doc)
		if err != nil {
			t.Errorf("SelectIndexes(%q): %v", src, err)
			continue
		}
		if !viaArena {
			t.Errorf("SelectIndexes(%q) took the tree route; want arena", src)
		}
		want := treeOrders(t, p, doc)
		if !sameIndexSet(got, want) {
			t.Errorf("SelectIndexes(%q) = %v, tree says %v", src, got, want)
		}
	}
}

// TestSelectIndexesFallback: no expression on an arena document falls
// back to the tree any more — the expressions that did before the arena
// evaluator covered the whole language now take the arena route and
// still agree with the tree.
func TestSelectIndexesFallback(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	exprs := []string{
		`//name/..`,
		`//fund/ancestor::lab`,
		`//project/following-sibling::misc`,
		`(//project)[2]`,
		`id('p1')`,
	}
	for _, src := range exprs {
		p := MustCompile(src)
		got, viaArena, err := p.SelectIndexes(doc)
		if err != nil {
			t.Errorf("SelectIndexes(%q): %v", src, err)
			continue
		}
		if !viaArena {
			t.Errorf("SelectIndexes(%q) fell back to the tree on an arena document", src)
		}
		want := treeOrders(t, p, doc)
		if !sameIndexSet(got, want) {
			t.Errorf("SelectIndexes(%q) = %v, tree says %v", src, got, want)
		}
	}
}

// TestSelectIndexesWithoutArena: a document that carries no arena (e.g.
// a clone) must take the tree route.
func TestSelectIndexesWithoutArena(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	doc.DropArena()
	p := MustCompile(`//project`)
	got, viaArena, err := p.SelectIndexes(doc)
	if err != nil {
		t.Fatal(err)
	}
	if viaArena {
		t.Fatal("SelectIndexes claims the arena route on an arena-less document")
	}
	if want := treeOrders(t, p, doc); !sameIndexSet(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestSelectIndexesDocumentOrder is the regression test for the
// document-order contract: unions evaluated right-to-left and
// predicates that filter interleaved subtrees must still come back as
// ascending preorder indexes with no duplicates.
func TestSelectIndexesDocumentOrder(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	exprs := []string{
		// Union operands in reverse document order.
		`//misc | //project | /lab`,
		`//fund/@amount | /lab/@name | //project/@type`,
		// Overlapping operands: dedup must hold.
		`//project | //project[@type='internal'] | //*`,
		// Descendant-or-self over nested contexts revisits subtrees.
		`//project//node() | //node()`,
		`//*[name or @type]`,
	}
	for _, src := range exprs {
		p := MustCompile(src)
		got, _, err := p.SelectIndexes(doc)
		if err != nil {
			t.Errorf("SelectIndexes(%q): %v", src, err)
			continue
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("SelectIndexes(%q) not in strict document order at %d: %v", src, i, got)
				break
			}
		}
		if want := treeOrders(t, p, doc); !sameIndexSet(got, want) {
			t.Errorf("SelectIndexes(%q) = %v, tree says %v", src, got, want)
		}
	}
}

// TestSelectArenaRejectsNonNodeSet mirrors Select's type error.
func TestSelectArenaRejectsNonNodeSet(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	for _, src := range []string{`count(//project)`, `'lit'`, `1+1`, `true()`} {
		p := MustCompile(src)
		if _, _, err := p.SelectIndexes(doc); err == nil {
			t.Errorf("SelectIndexes(%q) accepted a non-node-set result", src)
		}
	}
}

// TestArenaSymCacheAcrossArenas: one compiled Path evaluated over two
// different documents must re-resolve its name symbols per arena.
func TestArenaSymCacheAcrossArenas(t *testing.T) {
	p := MustCompile(`//b`)
	d1 := parityDoc(t, `<a><b/><c><b/></c></a>`)
	d2 := parityDoc(t, `<x><y/><b/><b><b/></b></x>`)
	for _, doc := range []*dom.Document{d1, d2, d1} {
		got, viaArena, err := p.SelectIndexes(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !viaArena {
			t.Fatal("expected arena route")
		}
		if want := treeOrders(t, p, doc); !sameIndexSet(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// A name the second arena never interned must select nothing rather
	// than aliasing symbol 0.
	q := MustCompile(`//zzz`)
	got, _, err := q.SelectIndexes(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("//zzz selected %v from a document without zzz elements", got)
	}
}

func sameIndexSet(a, b []int32) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
