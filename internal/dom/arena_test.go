package dom

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// serializeBothWays renders the document through the arena serializer
// and, via an arena-less Clone, through the pointer-tree serializer,
// and fails on any byte difference — the parity every arena consumer
// depends on.
func serializeBothWays(t *testing.T, doc *Document, indent string) string {
	t.Helper()
	if doc.arena == nil {
		t.Fatal("document has no arena to compare")
	}
	viaArena := doc.StringIndent(indent)
	viaTree := doc.Clone().StringIndent(indent)
	if viaArena != viaTree {
		t.Fatalf("arena and tree serializations differ (indent %q):\n--- arena ---\n%s\n--- tree ---\n%s",
			indent, viaArena, viaTree)
	}
	return viaArena
}

// TestArenaAttributeOnlyElement covers elements whose only content is
// attributes: the attribute range must be populated while the child
// links stay empty, and the element must serialize self-closed.
func TestArenaAttributeOnlyElement(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	root.SetAttr("x", "1")
	root.SetAttr("y", "two & <three>")
	doc.SetDocumentElement(root)
	doc.Renumber()
	ar := doc.BuildArena()

	i := ar.DocumentElement()
	if i < 0 {
		t.Fatal("no document element in arena")
	}
	start, end := ar.Attrs(i)
	if end-start != 2 {
		t.Fatalf("attr range [%d,%d), want 2 attributes", start, end)
	}
	if ar.FirstChild(i) != -1 {
		t.Errorf("attribute-only element has firstChild %d, want -1", ar.FirstChild(i))
	}
	if got := ar.Name(start); got != "x" {
		t.Errorf("first attr name %q, want x", got)
	}
	if got := string(ar.RawData(start + 1)); got != "two & <three>" {
		t.Errorf("second attr raw value %q", got)
	}
	out := serializeBothWays(t, doc, "")
	if !strings.Contains(out, `<a x="1" y="two &amp; &lt;three>"/>`) {
		t.Errorf("unexpected serialization: %s", out)
	}
}

// TestArenaMixedContentRuns covers runs of CDATA, comments and
// processing instructions between text — every non-element kind in one
// parent — in both flat and pretty serializations, including a CDATA
// section whose data contains "]]>" and so must be split.
func TestArenaMixedContentRuns(t *testing.T) {
	doc := NewDocument()
	doc.Node.AppendChild(&Node{Type: CommentNode, Data: " prolog "})
	doc.Node.AppendChild(&Node{Type: ProcessingInstructionNode, Name: "style", Data: `href="x.css"`})
	root := NewElement("r")
	doc.SetDocumentElement(root)
	root.AppendChild(NewText("t1 < t2"))
	root.AppendChild(&Node{Type: CDATANode, Data: "raw <markup/> here"})
	root.AppendChild(&Node{Type: CommentNode, Data: "mid"})
	root.AppendChild(&Node{Type: ProcessingInstructionNode, Name: "target", Data: ""})
	root.AppendChild(&Node{Type: CDATANode, Data: "ends with ]]> inside"})
	root.AppendChild(NewText("tail"))
	doc.Renumber()
	doc.BuildArena()

	flat := serializeBothWays(t, doc, "")
	serializeBothWays(t, doc, "  ")
	for _, want := range []string{
		"<!-- prolog -->",
		`<?style href="x.css"?>`,
		"t1 &lt; t2",
		"<![CDATA[raw <markup/> here]]>",
		"<?target?>",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("flat serialization missing %q:\n%s", want, flat)
		}
	}
	if strings.Contains(flat, "<![CDATA[ends with ]]> inside]]>") {
		t.Errorf("CDATA ]]-guard not applied:\n%s", flat)
	}
	i := doc.arena.DocumentElement()
	if k := doc.arena.Kind(doc.arena.FirstChild(i)); k != TextNode {
		t.Errorf("first child kind %v, want text", k)
	}
}

// TestArenaDefaultedSurvives pins that the Defaulted bit on attribute
// nodes (DTD attribute defaulting) survives the trip into the arena
// and back out through Materialize.
func TestArenaDefaultedSurvives(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	root.SetAttr("explicit", "1")
	root.SetAttr("supplied", "dflt").Defaulted = true
	doc.SetDocumentElement(root)
	doc.Renumber()
	ar := doc.BuildArena()

	start, end := ar.Attrs(ar.DocumentElement())
	if end-start != 2 {
		t.Fatalf("attr range [%d,%d), want 2", start, end)
	}
	if ar.Defaulted(start) {
		t.Error("explicit attribute marked defaulted in arena")
	}
	if !ar.Defaulted(start + 1) {
		t.Error("defaulted attribute lost its bit in arena")
	}
	m := ar.Materialize()
	attrs := m.Node.Children[0].Attrs
	if len(attrs) != 2 || attrs[0].Defaulted || !attrs[1].Defaulted {
		t.Errorf("Materialize lost Defaulted bits: %+v", attrs)
	}
}

// TestArenaDeepChain builds the 10000-deep element chain of the PR 2
// differential suite and checks the arena flattening and both
// serializers survive it and agree.
func TestArenaDeepChain(t *testing.T) {
	const depth = 10000
	doc := NewDocument()
	root := NewElement("d")
	doc.SetDocumentElement(root)
	cur := root
	for i := 0; i < depth; i++ {
		cur.AppendChild(NewText("x"))
		next := NewElement("c")
		cur.AppendChild(next)
		cur = next
	}
	cur.AppendChild(NewText("leaf"))
	doc.Renumber()
	ar := doc.BuildArena()

	if ar.Len() != doc.NodeCount() {
		t.Fatalf("arena has %d slots, document %d nodes", ar.Len(), doc.NodeCount())
	}
	serializeBothWays(t, doc, "")
	serializeBothWays(t, doc, "  ")

	// Walk the child links to the bottom: the chain must be intact.
	seen := 0
	for i := ar.DocumentElement(); i >= 0; {
		seen++
		next := int32(-1)
		for c := ar.FirstChild(i); c >= 0; c = ar.NextSibling(c) {
			if ar.Kind(c) == ElementNode {
				next = c
			}
		}
		i = next
	}
	if seen != depth+1 {
		t.Fatalf("element chain length %d, want %d", seen, depth+1)
	}
}

// TestArenaConcurrentReaders pins the build-before-share contract
// under -race: once BuildArena has run, any number of goroutines may
// sweep and serialize the shared arena concurrently, each through its
// own pooled buffer.
func TestArenaConcurrentReaders(t *testing.T) {
	doc := NewDocument()
	root := NewElement("r")
	doc.SetDocumentElement(root)
	for i := 0; i < 50; i++ {
		e := NewElement("e")
		e.SetAttr("k", "v & w")
		e.AppendChild(NewText("some <text>"))
		root.AppendChild(e)
	}
	doc.Renumber()
	ar := doc.BuildArena()
	opts := WriteOptions{Indent: "  "}
	var wb strings.Builder
	if err := doc.Write(&wb, opts); err != nil {
		t.Fatal(err)
	}
	want := wb.String()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				b := GetBuffer(ar.SizeHint())
				if err := doc.Write(b, opts); err != nil {
					t.Error(err)
				} else if b.String() != want {
					t.Error("concurrent serialization diverged")
				}
				PutBuffer(b)
				for i := int32(0); i < int32(ar.Len()); i++ {
					_ = ar.Kind(i)
					_ = ar.Name(i)
					_ = ar.RawData(i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestArenaInvalidation pins the lifecycle: Renumber discards the
// arena (its indices are for the old numbering) and BuildArena
// installs a fresh one.
func TestArenaInvalidation(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	doc.SetDocumentElement(root)
	doc.Renumber()
	doc.BuildArena()
	if doc.arena == nil {
		t.Fatal("BuildArena left no arena")
	}
	root.AppendChild(NewElement("b"))
	doc.Renumber()
	if doc.arena != nil {
		t.Fatal("Renumber kept a stale arena")
	}
	ar := doc.BuildArena()
	if ar.Len() != doc.NodeCount() {
		t.Fatalf("rebuilt arena has %d slots, want %d", ar.Len(), doc.NodeCount())
	}
}

// TestArenaQueryHelpers covers the accessors the arena-native XPath
// evaluator leans on: symbol lookup, subtree ranges and string-values.
func TestArenaQueryHelpers(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	b := NewElement("b")
	b.SetAttr("k", "v")
	b.AppendChild(NewText("one"))
	c := NewElement("c")
	c.AppendChild(&Node{Type: CDATANode, Data: "two"})
	c.AppendChild(&Node{Type: CommentNode, Data: "not text"})
	b.AppendChild(c)
	root.AppendChild(b)
	root.AppendChild(NewElement("d"))
	doc.SetDocumentElement(root)
	doc.Renumber()
	ar := doc.BuildArena()

	if _, ok := ar.LookupSym("b"); !ok {
		t.Error("LookupSym(b) missed an interned name")
	}
	if s, ok := ar.LookupSym("zzz"); ok {
		t.Errorf("LookupSym(zzz) = %d, want a miss", s)
	}
	// Symbol identity: every node named "b" carries the looked-up sym.
	bSym, _ := ar.LookupSym("b")
	bIdx := int32(b.Order)
	if ar.NameSym(bIdx) != bSym {
		t.Errorf("NameSym(%d) = %d, LookupSym says %d", bIdx, ar.NameSym(bIdx), bSym)
	}

	// Subtree ranges: <b> spans itself, its attribute, both children
	// and the grandchildren — everything up to its next sibling <d>.
	dIdx := int32(root.Children[1].Order)
	if got := ar.SubtreeEnd(bIdx); got != dIdx {
		t.Errorf("SubtreeEnd(b) = %d, want %d (the <d> sibling)", got, dIdx)
	}
	// The document subtree is the whole arena; an attribute's is itself.
	if got := ar.SubtreeEnd(0); got != int32(ar.Len()) {
		t.Errorf("SubtreeEnd(document) = %d, want %d", got, ar.Len())
	}
	attr := bIdx + 1
	if ar.Kind(attr) != AttributeNode {
		t.Fatalf("index %d is %v, want the k attribute", attr, ar.Kind(attr))
	}
	if got := ar.SubtreeEnd(attr); got != attr+1 {
		t.Errorf("SubtreeEnd(attr) = %d, want %d", got, attr+1)
	}
	// The last node's subtree runs to the end of the arena.
	last := int32(ar.Len() - 1)
	if got := ar.SubtreeEnd(last); got != int32(ar.Len()) {
		t.Errorf("SubtreeEnd(last) = %d, want %d", got, ar.Len())
	}
}

// TestMaskedWriteWithoutArena: a masked write of a document that
// carries no arena (a hand-built tree) sweeps an uncached arena and
// emits exactly what the tree writer emits for CloneMasked — without
// caching the arena on the document.
func TestMaskedWriteWithoutArena(t *testing.T) {
	doc := NewDocument()
	root := NewElement("a")
	root.SetAttr("x", "1")
	root.SetAttr("y", "2")
	b := NewElement("b")
	b.AppendChild(NewText("keep"))
	c := NewElement("c")
	c.AppendChild(NewText("drop"))
	c.AppendChild(NewElement("d"))
	root.AppendChild(b)
	root.AppendChild(c)
	doc.SetDocumentElement(root)
	doc.Renumber()
	mask := NewBitmask(doc.NodeCount())
	doc.Walk(func(n *Node) bool {
		if n.Name != "y" && n.Data != "drop" {
			mask.Set(n.Order)
		}
		return true
	})
	for _, opts := range []WriteOptions{{}, {Indent: "  "}} {
		var got, want strings.Builder
		opts.Mask = mask
		if err := doc.Write(&got, opts); err != nil {
			t.Fatal(err)
		}
		opts.Mask = nil
		if err := doc.CloneMasked(mask).Write(&want, opts); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("masked write differs from CloneMasked (indent %q):\n--- masked ---\n%s\n--- clone ---\n%s",
				opts.Indent, got.String(), want.String())
		}
		if strings.Contains(got.String(), "drop") || strings.Contains(got.String(), `y="2"`) {
			t.Errorf("masked write leaked hidden content:\n%s", got.String())
		}
	}
	if doc.arena != nil {
		t.Fatal("masked write cached an arena on the document")
	}
}

// TestBitmaskCountRange checks the ranged popcount against a bit-by-bit
// count over every interval of a mask spanning several words, the nil
// mask's count-everything convention, and allSet against the count.
func TestBitmaskCountRange(t *testing.T) {
	const n = 200
	m := NewBitmask(n)
	for i := 0; i < n; i++ {
		if i%3 == 0 || i%7 == 0 || (i >= 60 && i < 70) {
			m.Set(i)
		}
	}
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n+5; hi++ {
			want := 0
			for i := lo; i < hi; i++ {
				if m.Get(i) {
					want++
				}
			}
			if got := m.CountRange(lo, hi); got != want {
				t.Fatalf("CountRange(%d, %d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
	if got := Bitmask(nil).CountRange(3, 10); got != 7 {
		t.Errorf("nil mask CountRange(3, 10) = %d, want 7", got)
	}
	// allSet is CountRange's "every index visible" without the count,
	// on this mask and on one with a long run spanning whole words.
	runs := NewBitmask(n)
	runs.SetRange(10, 150)
	runs.Set(160)
	for _, mm := range []Bitmask{m, runs} {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n+5; hi++ {
				if got, want := mm.allSet(lo, hi), mm.CountRange(lo, hi) == hi-lo; got != want {
					t.Fatalf("allSet(%d, %d) = %v, want %v", lo, hi, got, want)
				}
			}
		}
	}
}

// TestBitmaskSetRange checks the ranged set against a bit-by-bit set
// over every interval of a three-word mask, including ranges that start
// or end on a word boundary, span whole words, or are empty, and that
// it leaves the bits outside the range alone.
func TestBitmaskSetRange(t *testing.T) {
	const n = 192
	for lo := 0; lo <= n; lo++ {
		for hi := lo - 1; hi <= n; hi++ {
			got, want := NewBitmask(n), NewBitmask(n)
			got.Set(0)
			want.Set(0)
			got.Set(n - 1)
			want.Set(n - 1)
			got.SetRange(lo, hi)
			for i := lo; i < hi; i++ {
				want.Set(i)
			}
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("SetRange(%d, %d): word %d = %064b, want %064b", lo, hi, w, got[w], want[w])
				}
			}
		}
	}
}

// spanDoc builds a document with every node kind, mixed and element
// content, whitespace-only text, and character data whose escaped form
// differs from the raw one (text and attribute values with '&', '<',
// '>', '"' and control whitespace; CDATA containing "]]>"), next to
// comments and PIs that are written verbatim. It carries its arena.
func spanDoc(seed int64) *Document {
	rng := rand.New(rand.NewSource(seed))
	doc := NewDocument()
	doc.Node.AppendChild(&Node{Type: CommentNode, Data: " prolog & <x> "})
	root := NewElement("r")
	doc.SetDocumentElement(root)
	values := []string{"v<%d>&\"", "plain%d", "tab\t%d\nline", "q\"%d\"'"}
	var grow func(e *Node, depth int)
	grow = func(e *Node, depth int) {
		for a := 0; a < rng.Intn(3); a++ {
			e.SetAttr(fmt.Sprintf("a%d", a), fmt.Sprintf(values[rng.Intn(len(values))], rng.Intn(9)))
		}
		if depth == 0 {
			e.AppendChild(NewText(fmt.Sprintf("leaf & %d", rng.Intn(9))))
			return
		}
		for c := 0; c < 1+rng.Intn(4); c++ {
			switch rng.Intn(10) {
			case 0:
				e.AppendChild(NewText("mixed <text> & \"quotes\" a > b"))
			case 1:
				e.AppendChild(NewText("\n   "))
			case 2:
				e.AppendChild(&Node{Type: CommentNode, Data: "c & <d>"})
			case 3:
				e.AppendChild(&Node{Type: ProcessingInstructionNode, Name: "pi", Data: "x & <y>"})
			case 4:
				e.AppendChild(&Node{Type: CDATANode, Data: "raw ]]> data"})
			case 5:
				e.AppendChild(&Node{Type: CDATANode, Data: "]]>]]>&<"})
			case 6:
				e.AppendChild(NewText("plain"))
			default:
				k := NewElement(fmt.Sprintf("e%d", rng.Intn(3)))
				e.AppendChild(k)
				grow(k, depth-1)
			}
		}
	}
	grow(root, 4)
	doc.Renumber()
	doc.BuildArena()
	return doc
}

// viewMask draws an upward-closed mask over doc, as view masks are: a
// node can be visible only under a visible parent. Some subtrees are
// kept whole, the ones a masked write copies from the rendering.
func viewMask(doc *Document, rng *rand.Rand) Bitmask {
	ar := doc.ReadArena()
	m := NewBitmask(ar.Len())
	m.Set(0)
	var keep func(i int32, whole bool)
	keep = func(i int32, whole bool) {
		m.Set(int(i))
		if !whole && ar.Kind(i) == ElementNode && rng.Intn(3) == 0 {
			whole = true
		}
		s, e := ar.Attrs(i)
		for a := s; a < e; a++ {
			if whole || rng.Intn(2) == 0 {
				m.Set(int(a))
			}
		}
		for c := ar.FirstChild(i); c >= 0; c = ar.NextSibling(c) {
			if whole || rng.Intn(3) != 0 {
				keep(c, whole)
			}
		}
	}
	for c := ar.FirstChild(0); c >= 0; c = ar.NextSibling(c) {
		keep(c, false)
	}
	return m
}

// TestRenderedSpansMatchNodeWriter pins the span copy: a masked write
// under ServeIndent, which copies every fully visible subtree out of
// the arena's rendering, emits exactly what the tree writer emits for
// the pruned copy — for random upward-closed masks, the full mask (the
// whole rendering) and the other indents, which write node by node.
// The documents' character data exercises every escape the arena
// stores in its sparse table, and the masks leave both fully visible
// subtrees (copied) and partly masked ones (written node by node).
func TestRenderedSpansMatchNodeWriter(t *testing.T) {
	copied, partial, escaped := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		doc := spanDoc(seed)
		ar := doc.ReadArena()
		rng := rand.New(rand.NewSource(seed))
		full := NewBitmask(doc.NodeCount())
		full.SetRange(0, doc.NodeCount())
		for round, mask := range []Bitmask{full, viewMask(doc, rng), viewMask(doc, rng), viewMask(doc, rng)} {
			for i := int32(1); i < int32(ar.Len()); i++ {
				if ar.Kind(i) != ElementNode || !mask.Get(int(i)) {
					continue
				}
				if mask.allSet(int(i), int(ar.SubtreeEnd(i))) {
					copied++
				} else {
					partial++
				}
			}
			for _, opts := range []WriteOptions{{Indent: ServeIndent}, {Indent: ServeIndent, OmitDecl: true}, {}, {Indent: "\t"}} {
				var got, want strings.Builder
				opts.Mask = mask
				if err := doc.Write(&got, opts); err != nil {
					t.Fatal(err)
				}
				opts.Mask = nil
				if err := doc.CloneMasked(mask).Write(&want, opts); err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("seed %d mask %d indent %q: masked write differs from the pruned copy:\n--- masked ---\n%s\n--- copy ---\n%s",
						seed, round, opts.Indent, got.String(), want.String())
				}
			}
		}
		if doc.arena.render.buf == nil {
			t.Fatalf("seed %d: a masked write under ServeIndent did not render the document", seed)
		}
		escaped += len(ar.escSpans)
	}
	if escaped == 0 {
		t.Fatal("no character data needed escaping")
	}
	if copied == 0 || partial == 0 {
		t.Fatalf("%d fully visible and %d partly masked elements written: the masks must give both", copied, partial)
	}
}

// TestRenderOnceConcurrently: the first masked writes of a document,
// racing each other, build one rendering and all emit the same bytes.
func TestRenderOnceConcurrently(t *testing.T) {
	doc := spanDoc(7)
	mask := viewMask(doc, rand.New(rand.NewSource(7)))
	var want strings.Builder
	if err := doc.CloneMasked(mask).Write(&want, WriteOptions{Indent: ServeIndent}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := GetBuffer(0)
			defer PutBuffer(b)
			if err := doc.Write(b, WriteOptions{Indent: ServeIndent, Mask: mask}); err != nil {
				t.Error(err)
			} else if b.String() != want.String() {
				t.Error("concurrent first masked write diverged from the pruned copy")
			}
		}()
	}
	wg.Wait()
}

// linkRecorder feeds a tree to a Builder and records, as the nodes
// arrive, the links the arena must answer: each node's first
// non-attribute child and the end of its attribute range.
type linkRecorder struct {
	b       *Builder
	next    int32
	first   map[int32]int32
	attrEnd map[int32]int32
}

func recordLinks(doc *Document) (*Arena, *linkRecorder) {
	r := &linkRecorder{b: NewBuilder(0), next: 1, first: map[int32]int32{}, attrEnd: map[int32]int32{}}
	for _, c := range doc.Node.Children {
		r.add(0, c)
	}
	return r.b.Finish(doc).arena, r
}

func (r *linkRecorder) add(parent int32, nd *Node) {
	i := r.next
	r.next++
	if _, ok := r.first[parent]; !ok {
		r.first[parent] = i
	}
	switch nd.Type {
	case ElementNode:
		r.b.StartElement(nd.Name)
		r.attrEnd[i] = i + 1
		for _, at := range nd.Attrs {
			r.b.Attr(at.Name, at.Data, at.Defaulted)
			r.next++
			r.attrEnd[i] = r.next
		}
		for _, c := range nd.Children {
			r.add(i, c)
		}
		r.b.EndElement()
	default:
		r.b.Leaf(nd.Type, nd.Name, nd.Data)
	}
}

// TestArenaDerivedLinks pins the links the arena derives instead of
// storing: FirstChild (the slot after a node's attributes, when that
// slot is its child) and Attrs (from the node's attribute end) equal
// the links recorded as the builder received the nodes — on fixtures
// with empty, attribute-only, text-first and prolog-carrying
// documents, and on random documents of every node kind.
func TestArenaDerivedLinks(t *testing.T) {
	fixture := func(build func(doc *Document)) *Document {
		doc := NewDocument()
		build(doc)
		return doc
	}
	docs := []*Document{
		fixture(func(doc *Document) { doc.SetDocumentElement(NewElement("a")) }),
		fixture(func(doc *Document) {
			a := NewElement("a")
			a.SetAttr("x", "1")
			a.SetAttr("y", "2")
			doc.SetDocumentElement(a)
		}),
		fixture(func(doc *Document) {
			doc.Node.AppendChild(&Node{Type: CommentNode, Data: "p"})
			a := NewElement("a")
			doc.SetDocumentElement(a)
			a.AppendChild(NewText("t"))
			b := NewElement("b")
			b.SetAttr("k", "v")
			a.AppendChild(b)
			b.AppendChild(NewElement("c"))
			a.AppendChild(&Node{Type: ProcessingInstructionNode, Name: "p", Data: "d"})
			doc.Node.AppendChild(&Node{Type: CommentNode, Data: "q"})
		}),
	}
	for seed := int64(1); seed <= 40; seed++ {
		docs = append(docs, spanDoc(seed))
	}
	for d, doc := range docs {
		ar, rec := recordLinks(doc)
		if int(rec.next) != ar.Len() {
			t.Fatalf("doc %d: recorded %d slots, arena has %d", d, rec.next, ar.Len())
		}
		for i := int32(0); i < int32(ar.Len()); i++ {
			first, ok := rec.first[i]
			if !ok {
				first = -1
			}
			if got := ar.FirstChild(i); got != first {
				t.Fatalf("doc %d: FirstChild(%d) = %d, builder linked %d", d, i, got, first)
			}
			end, ok := rec.attrEnd[i]
			if !ok {
				end = i + 1
			}
			if s, e := ar.Attrs(i); s != i+1 || e != end {
				t.Fatalf("doc %d: Attrs(%d) = [%d, %d), builder gave [%d, %d)", d, i, s, e, i+1, end)
			}
		}
	}
}

// slotBytes sums the bytes of the slice fields of the struct v, which
// must each be indexed by slot or hold a slot bitmask's words. The
// fields named in sparse hold data per member of a subset and are
// left out.
func slotBytes(v reflect.Value, sparse map[string]bool) int {
	total := 0
	for f := 0; f < v.NumField(); f++ {
		fv, ft := v.Field(f), v.Type().Field(f)
		switch {
		case sparse[ft.Name]:
		case fv.Kind() == reflect.Slice:
			total += fv.Len() * int(ft.Type.Elem().Size())
		case fv.Kind() == reflect.Struct && ft.Type.Name() == "rankMask":
			total += slotBytes(fv, nil)
		}
	}
	return total
}

// TestArenaSlotBytes pins the resident layout: an arena's per-slot
// arrays and bitmasks come to at most 26 bytes a slot (25 in the
// arrays; the old layout took 48), the sparse escape table holds one
// span per slot whose escaped form differs, and the rendering holds
// one span per element and no per-slot array. The document gathers
// the random documents' element trees under one root, for a few
// hundred slots of every kind.
func TestArenaSlotBytes(t *testing.T) {
	doc := NewDocument()
	root := NewElement("all")
	doc.SetDocumentElement(root)
	for seed := int64(1); seed <= 40; seed++ {
		e := spanDoc(seed).Node.Children[1]
		e.Parent = nil
		root.AppendChild(e)
	}
	doc.Renumber()
	ar := doc.BuildArena()
	n := ar.Len()
	per := float64(slotBytes(reflect.ValueOf(ar).Elem(), map[string]bool{"bytes": true, "escSpans": true})) / float64(n)
	t.Logf("%d slots: %.2f bytes per slot in the arrays and bitmasks, %d escaped spans", n, per, len(ar.escSpans))
	if per > 26 {
		t.Errorf("%.2f bytes per slot in the arena's arrays, budget 26", per)
	}
	escaped, elems := 0, 0
	for i := int32(0); i < int32(n); i++ {
		if ar.escaped.has(i) {
			escaped++
		}
		if ar.Kind(i) == ElementNode {
			elems++
		}
	}
	if escaped == 0 || len(ar.escSpans) != escaped {
		t.Errorf("%d escaped spans for %d escaped slots", len(ar.escSpans), escaped)
	}
	r := ar.rendering()
	if len(r.spans) != elems || len(r.elems.bits) != (n+63)/64 {
		t.Errorf("rendering keeps %d spans and %d mask words for %d elements in %d slots",
			len(r.spans), len(r.elems.bits), elems, n)
	}
}
