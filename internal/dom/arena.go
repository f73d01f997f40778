package dom

import (
	"bytes"
	"strings"
	"sync"
)

// span locates one run of character data inside an Arena's shared byte
// buffer.
type span struct{ off, n uint32 }

// Arena is the struct-of-arrays document representation: every node of
// a renumbered Document, laid out as parallel arrays indexed by the
// node's dense preorder index (Node.Order). It is the only
// representation the label, mask, masked-unparse, XPath and
// update-resolution sweeps run over, touching cache-dense arrays
// instead of chasing pointers, and the only one a stored document
// keeps. The parser writes it directly through a Builder, and DTD
// validation reads it. The pointer tree is the adapter that the merge,
// update apply and the reference pipeline tests take from Materialize.
//
// Layout invariants (see docs/ARENA.md):
//
//   - Array index = preorder index: index 0 is the document node, an
//     element precedes its attributes, which precede its children —
//     exactly Document.Renumber's convention, so a Labeling or Bitmask
//     computed against the arena is interchangeable with one computed
//     against the tree.
//   - An element's attributes occupy the contiguous index range
//     [attrStart, attrEnd), which immediately follows the element.
//   - firstChild/nextSibling link only non-attribute children;
//     attributes are reached through their range, never the child list.
//   - All character data lives in one shared byte buffer. Each node
//     carries a raw span (the exact parsed data) and an escape span
//     (the serialization-ready form, escaped once at build time); when
//     escaping is the identity the two spans alias the same bytes.
//
// An Arena is immutable after construction: readers may share it
// freely across goroutines. It is only meaningful for the document and
// numbering generation it was built from; Renumber discards it.
type Arena struct {
	kind        []NodeType
	name        []Sym
	parent      []int32
	firstChild  []int32
	nextSibling []int32
	attrStart   []int32
	attrEnd     []int32
	raw         []span
	esc         []span
	defaulted   Bitmask
	elemAttr    Bitmask // set for every element and attribute index
	bytes       []byte
	syms        *symTab

	elemAttrs int // elements + attributes, the paper's node unit
	sizeHint  int // estimated serialized output size

	// render is the document rendered once under ServeIndent, built on
	// the first masked write that can copy from it (see rendering).
	render rendering

	// Document metadata, carried so Materialize can reconstruct a
	// standalone Document adapter.
	version    string
	encoding   string
	standalone string
	docType    *DocType
}

// appendRaw copies s into the shared buffer and returns its span.
func (a *Arena) appendRaw(s string) span {
	sp := span{off: uint32(len(a.bytes)), n: uint32(len(s))}
	a.bytes = append(a.bytes, s...)
	return sp
}

// appendEsc returns the span for the escaped form of a raw span: when
// escaping changed nothing the raw span is aliased, otherwise the
// escaped bytes are appended separately.
func (a *Arena) appendEsc(raw span, escaped string) span {
	if int(raw.n) == len(escaped) && string(a.bytes[raw.off:raw.off+raw.n]) == escaped {
		return raw
	}
	return a.appendRaw(escaped)
}

// renderCDATA pre-renders a CDATA body as the complete section markup,
// splitting on "]]>" exactly as the tree serializer does, so unparsing
// the node is a single byte copy.
func renderCDATA(data string) string {
	var b strings.Builder
	for {
		i := strings.Index(data, "]]>")
		if i < 0 {
			break
		}
		b.WriteString("<![CDATA[")
		b.WriteString(data[:i+2])
		b.WriteString("]]>")
		data = data[i+2:]
	}
	b.WriteString("<![CDATA[")
	b.WriteString(data)
	b.WriteString("]]>")
	return b.String()
}

// Len returns the number of nodes in the arena.
func (a *Arena) Len() int { return len(a.kind) }

// Kind returns the node type at index i.
func (a *Arena) Kind(i int32) NodeType { return a.kind[i] }

// Name returns the element tag name, attribute name, or PI target at
// index i ("" for other kinds).
func (a *Arena) Name(i int32) string { return a.syms.name(a.name[i]) }

// NameSym returns the interned name symbol at index i; symbols compare
// equal iff the names are equal within this arena.
func (a *Arena) NameSym(i int32) Sym { return a.name[i] }

// Parent returns the parent index of i, or -1 for the document node.
func (a *Arena) Parent(i int32) int32 { return a.parent[i] }

// FirstChild returns the first non-attribute child of i, or -1.
func (a *Arena) FirstChild(i int32) int32 { return a.firstChild[i] }

// NextSibling returns the next non-attribute sibling of i, or -1.
func (a *Arena) NextSibling(i int32) int32 { return a.nextSibling[i] }

// Attrs returns the contiguous attribute index range [start, end) of
// element i (an empty range for attribute-less or non-element nodes).
func (a *Arena) Attrs(i int32) (start, end int32) { return a.attrStart[i], a.attrEnd[i] }

// RawData returns the raw character data at index i: the text/CDATA
// content, comment body, PI instruction, or attribute value, exactly
// as parsed. The returned slice aliases the arena buffer and must not
// be modified.
func (a *Arena) RawData(i int32) []byte {
	sp := a.raw[i]
	return a.bytes[sp.off : sp.off+sp.n]
}

// escData returns the serialization-ready bytes at index i.
func (a *Arena) escData(i int32) []byte {
	sp := a.esc[i]
	return a.bytes[sp.off : sp.off+sp.n]
}

// Defaulted reports whether the attribute at index i was supplied by
// DTD attribute defaulting rather than the source document.
func (a *Arena) Defaulted(i int32) bool { return a.defaulted.Get(int(i)) }

// LookupSym resolves a name to its interned symbol, reporting whether
// the arena contains the name at all. A name absent from the symbol
// table cannot match any node, which lets callers turn a string
// comparison per node into one map lookup per query plus an integer
// comparison per node (the arena-native XPath evaluator does exactly
// this).
func (a *Arena) LookupSym(name string) (Sym, bool) {
	s, ok := a.syms.index[name]
	return s, ok
}

// SubtreeEnd returns the index one past the last node of i's subtree:
// the preorder convention (element, then its attributes, then its
// children's subtrees) makes every subtree a contiguous index range
// [i, SubtreeEnd(i)), so descendant sweeps are linear array scans.
// An attribute's subtree is just itself.
func (a *Arena) SubtreeEnd(i int32) int32 {
	if a.kind[i] == AttributeNode {
		return i + 1
	}
	for j := i; j >= 0; j = a.parent[j] {
		if ns := a.nextSibling[j]; ns >= 0 {
			return ns
		}
	}
	return int32(len(a.kind))
}

// DocumentElement returns the index of the document element (the first
// element child of the document node), or -1 if the arena has none.
func (a *Arena) DocumentElement() int32 {
	for c := a.firstChild[0]; c >= 0; c = a.nextSibling[c] {
		if a.kind[c] == ElementNode {
			return c
		}
	}
	return -1
}

// CountElemAttrs returns the number of element and attribute nodes —
// the unit in which the paper's labeling statistics are expressed —
// counted once at build time.
func (a *Arena) CountElemAttrs() int { return a.elemAttrs }

// CountElemAttrsIn returns the number of element and attribute nodes
// in the index range [lo, hi) — with a subtree's interval
// [i, SubtreeEnd(i)), the subtree's size in the paper's node unit.
func (a *Arena) CountElemAttrsIn(lo, hi int32) int {
	return a.elemAttr.CountRange(int(lo), int(hi))
}

// SizeHint returns an estimate of the document's serialized size in
// bytes, suitable for pre-sizing output buffers.
func (a *Arena) SizeHint() int { return a.sizeHint }

// ServeIndent is the indent unit views are served with. An arena keeps
// one rendering of its whole document under this indent, and a masked
// write with the same indent copies every fully visible subtree out of
// it instead of writing the subtree node by node.
const ServeIndent = "  "

// rendering is an arena's whole document serialized once under
// ServeIndent, with the byte span each element's subtree occupies in
// it. A fully visible subtree serializes to exactly its span inside any
// view: the writer's output for a subtree depends only on the subtree's
// nodes, their mask bits and its depth; pruning keeps every ancestor of
// a kept node, so the subtree sits at the same depth in the view as in
// the document; and with every child visible the pretty-print decision
// is the same as in the full rendering.
type rendering struct {
	once       sync.Once
	buf        []byte
	start, end []int32 // per element index: its span is buf[start:end]
}

// rendering returns the arena's rendering, building it on first use.
// Concurrent first callers wait for one build (the Once), so a document
// version is rendered at most once; it costs about one serialized copy
// of the document plus two int32 per node, and lives as long as the
// arena does.
func (a *Arena) rendering() *rendering {
	r := &a.render
	r.once.Do(func() {
		var b bytes.Buffer
		b.Grow(a.sizeHint)
		r.start = make([]int32, len(a.kind))
		r.end = make([]int32, len(a.kind))
		s := arenaWriter{a: a, w: newErrWriter(&b), indent: ServeIndent, rec: r}
		for c := a.firstChild[0]; c >= 0; c = a.nextSibling[c] {
			s.node(c, 0, 0)
		}
		// The buffer grew by doubling; keep only the bytes.
		r.buf = bytes.Clone(b.Bytes())
	})
	return r
}

// Materialize reconstructs a standalone pointer-tree Document from the
// arena — the adapter consumers such as DTD validation, the
// write-through-views merge and the reference pipeline tests operate
// on. The result is renumbered (its Order values equal the arena
// indexes, since both follow the same preorder convention) and does not
// share nodes with any other tree; it carries no arena of its own.
func (a *Arena) Materialize() *Document {
	d, _ := a.materialize(nil)
	return d
}

// MaterializeNodes is Materialize that also returns the copied nodes by
// arena index: nodes[i] is the copy of node i, so a caller holding
// indexes into the arena (an update's resolved targets) reaches their
// copies without walking the tree.
func (a *Arena) MaterializeNodes() (doc *Document, nodes []Node) {
	return a.materialize(nil)
}

// MaterializeMasked is Materialize restricted to the mask-visible nodes:
// a hidden node is dropped together with its subtree, so with an
// upward-closed view mask the result is the pruned view as a standalone
// document. A nil mask copies everything. Unlike Materialize's, a
// masked copy is renumbered densely, as Document.CloneMasked's is.
func (a *Arena) MaterializeMasked(mask Bitmask) *Document {
	d, _ := a.materialize(mask)
	if mask != nil {
		d.Renumber()
	}
	return d
}

// materialize copies the arena out to a pointer tree in one linear
// sweep. Every node lives in one slab indexed by arena index, every
// attribute and child list is a capacity-clipped window of one shared
// pointer slice (each node is at most one list's member, and a later
// append to a clipped window reallocates instead of overwriting its
// neighbour), and all character data is sliced out of one string copy
// of the arena's buffer — a handful of allocations per document instead
// of several per node. A node is copied when the mask shows it and its
// parent was copied.
func (a *Arena) materialize(mask Bitmask) (*Document, []Node) {
	d := &Document{
		Version:    a.version,
		Encoding:   a.encoding,
		Standalone: a.standalone,
		nodeCount:  len(a.kind),
	}
	if a.docType != nil {
		dt := *a.docType
		d.DocType = &dt
	}
	nodes := make([]Node, len(a.kind))
	lists := make([]*Node, len(a.kind))
	text := string(a.bytes)
	used := 0
	window := func(k int) []*Node {
		w := lists[used : used : used+k]
		used += k
		return w
	}
	for i := range a.kind {
		if i > 0 && (!mask.VisibleIdx(int32(i)) || nodes[a.parent[i]].Type == 0) {
			continue
		}
		nd := &nodes[i]
		a.fill(nd, int32(i), text)
		if p := a.parent[i]; p >= 0 {
			nd.Parent = &nodes[p]
			if nd.Type == AttributeNode {
				nd.Parent.Attrs = append(nd.Parent.Attrs, nd)
			} else {
				nd.Parent.Children = append(nd.Parent.Children, nd)
			}
		}
		if k := mask.CountRange(int(a.attrStart[i]), int(a.attrEnd[i])); k > 0 {
			nd.Attrs = window(k)
		}
		k := 0
		for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
			if mask.VisibleIdx(c) {
				k++
			}
		}
		if k > 0 {
			nd.Children = window(k)
		}
	}
	d.Node = &nodes[0]
	return d, nodes
}

// Path returns the diagnostic slash path of node i, such as
// "/laboratory/project/@name" — exactly what Node.Path returns for the
// node's copy in Materialize's tree, so reports produced over the arena
// read the same as reports produced over a tree.
func (a *Arena) Path(i int32) string {
	p := a.parent[i]
	switch {
	case p < 0 && a.kind[i] == DocumentNode:
		return "/"
	case p < 0:
		return "/" + stepLabel(a.kind[i], a.Name(i))
	}
	parent := a.Path(p)
	if parent == "/" {
		return "/" + stepLabel(a.kind[i], a.Name(i))
	}
	return parent + "/" + stepLabel(a.kind[i], a.Name(i))
}

// Subtree returns a detached pointer-tree copy of the node at index i
// and its subtree, restricted to the mask-visible nodes (a nil mask
// copies everything). Each copy's Order is its arena index. The mask
// must be upward-closed, as view masks are: a hidden node is dropped
// together with its subtree.
func (a *Arena) Subtree(i int32, mask Bitmask) *Node {
	nd := &Node{}
	a.fill(nd, i, "")
	for at := a.attrStart[i]; at < a.attrEnd[i]; at++ {
		if mask.VisibleIdx(at) {
			ac := a.Subtree(at, mask)
			ac.Parent = nd
			nd.Attrs = append(nd.Attrs, ac)
		}
	}
	for c := a.firstChild[i]; c >= 0; c = a.nextSibling[c] {
		if mask.VisibleIdx(c) {
			cc := a.Subtree(c, mask)
			cc.Parent = nd
			nd.Children = append(nd.Children, cc)
		}
	}
	return nd
}

// fill sets nd's own fields — kind, name, data, index and the
// defaulting flag — from node i. Character data is sliced out of text,
// a string copy of the whole buffer, when the caller made one (a
// whole-document copy shares it), and copied node by node otherwise.
func (a *Arena) fill(nd *Node, i int32, text string) {
	nd.Type, nd.Order = a.kind[i], int(i)
	switch nd.Type {
	case ElementNode, AttributeNode, ProcessingInstructionNode:
		nd.Name = a.syms.name(a.name[i])
	}
	switch nd.Type {
	case AttributeNode, TextNode, CDATANode, CommentNode, ProcessingInstructionNode:
		sp := a.raw[i]
		if len(text) == len(a.bytes) {
			nd.Data = text[sp.off : sp.off+sp.n]
		} else {
			nd.Data = string(a.bytes[sp.off : sp.off+sp.n])
		}
	}
	nd.Defaulted = nd.Type == AttributeNode && a.defaulted.Get(int(i))
}
