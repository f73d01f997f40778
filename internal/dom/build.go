package dom

import "slices"

// Builder fills an Arena's parallel arrays in document order. It is the
// only code that writes them: the parser feeds it as it reads the
// source, and buildArena feeds it a walk of a tree built in memory.
//
// Nodes arrive in the arena's preorder. The document node is open from
// the start; StartElement opens an element under the innermost open
// node, Attr adds attributes to the element just opened (before any of
// its children), and EndElement closes it. Leaf adds a childless node
// under the innermost open node.
type Builder struct {
	a *Arena
	// open holds the open document and element indexes, innermost
	// last, each with its last non-attribute child so far (-1: none).
	open []struct{ i, last int32 }
	// attrOf records, per name symbol, the element that last took an
	// attribute of that name, so HasAttr is one lookup whatever the
	// element's attribute count.
	attrOf    []int32
	defaulted []int32
	escaped   []int32 // slots given an escaped span, in order
}

// NewBuilder returns a builder holding the open document node, with
// room for about nodes nodes before the arrays grow.
func NewBuilder(nodes int) *Builder {
	nodes = max(nodes, 1)
	b := &Builder{a: &Arena{
		kind:        make([]NodeType, 0, nodes),
		name:        make([]Sym, 0, nodes),
		parent:      make([]int32, 0, nodes),
		nextSibling: make([]int32, 0, nodes),
		attrEnd:     make([]int32, 0, nodes),
		raw:         make([]span, 0, nodes),
		syms:        newSymTab(),
	}}
	b.open = append(b.open, struct{ i, last int32 }{b.add(DocumentNode, 0, span{}), -1})
	return b
}

// add appends one node under the innermost open node and returns its
// index; a non-attribute node is linked as the parent's last child.
// The first child needs no link: it is the slot after the parent's
// attributes.
func (b *Builder) add(k NodeType, name Sym, raw span) int32 {
	a := b.a
	i, p := int32(len(a.kind)), int32(-1)
	if n := len(b.open); n > 0 {
		top := &b.open[n-1]
		p = top.i
		if k != AttributeNode {
			if top.last >= 0 {
				a.nextSibling[top.last] = i
			}
			top.last = i
		}
	}
	a.kind = append(a.kind, k)
	a.name = append(a.name, name)
	a.parent = append(a.parent, p)
	a.nextSibling = append(a.nextSibling, -1)
	a.attrEnd = append(a.attrEnd, i+1)
	a.raw = append(a.raw, raw)
	return i
}

// escape records esc as slot i's serialized form and returns its
// length. When escaping changed nothing the raw span serves and
// nothing is stored.
func (b *Builder) escape(i int32, esc string) int {
	a := b.a
	if raw := a.raw[i]; int(raw.n) == len(esc) && string(a.bytes[raw.off:raw.off+raw.n]) == esc {
		return len(esc)
	}
	b.escaped = append(b.escaped, i)
	a.escSpans = append(a.escSpans, a.appendRaw(esc))
	return len(esc)
}

// StartElement opens an element named name under the innermost open
// node.
func (b *Builder) StartElement(name string) {
	i := b.add(ElementNode, b.a.syms.intern(name), span{})
	b.open = append(b.open, struct{ i, last int32 }{i, -1})
	b.a.elemAttrs++
	b.a.sizeHint += 2*len(name) + 5
}

// EndElement closes the innermost open element.
func (b *Builder) EndElement() { b.open = b.open[:len(b.open)-1] }

// HasAttr reports whether the element just opened already has an
// attribute named name.
func (b *Builder) HasAttr(name string) bool {
	s, ok := b.a.syms.index[name]
	return ok && int(s) < len(b.attrOf) && b.attrOf[s] == b.open[len(b.open)-1].i
}

// Attr adds an attribute to the element just opened, before any of its
// children. defaulted marks a value supplied by DTD attribute
// defaulting rather than the source.
func (b *Builder) Attr(name, value string, defaulted bool) {
	a, e := b.a, b.open[len(b.open)-1].i
	s := a.syms.intern(name)
	for len(b.attrOf) <= int(s) {
		b.attrOf = append(b.attrOf, -1)
	}
	b.attrOf[s] = e
	i := b.add(AttributeNode, s, a.appendRaw(value))
	a.attrEnd[e] = i + 1
	if defaulted {
		b.defaulted = append(b.defaulted, i)
	}
	a.elemAttrs++
	a.sizeHint += len(name) + 4 + b.escape(i, EscapeAttr(value))
}

// Leaf adds a text, CDATA, comment or processing-instruction node of
// kind k; target names a processing instruction. Text is escaped once
// here and CDATA pre-rendered as its complete markup, so serializing
// either is one copy.
func (b *Builder) Leaf(k NodeType, target, data string) {
	a := b.a
	name, size := Sym(0), len(data)
	if k == ProcessingInstructionNode {
		name = a.syms.intern(target)
	}
	i := b.add(k, name, a.appendRaw(data))
	switch k {
	case TextNode:
		size = b.escape(i, EscapeText(data))
	case CDATANode:
		size = b.escape(i, renderCDATA(data))
	case CommentNode:
		size += len("<!---->")
	case ProcessingInstructionNode:
		size += len(target) + len("<? ?>")
	}
	a.sizeHint += size
}

// Finish completes the arena and returns it as an arena-only document
// (Node is nil) carrying meta's XML declaration and DOCTYPE. Every
// array is trimmed to its length, so a stored arena carries no append
// slack. The builder must not be used afterwards.
func (b *Builder) Finish(meta *Document) *Document {
	a := b.a
	a.kind, a.name = trim(a.kind), trim(a.name)
	a.parent, a.nextSibling, a.attrEnd = trim(a.parent), trim(a.nextSibling), trim(a.attrEnd)
	a.raw, a.escSpans, a.bytes = trim(a.raw), trim(a.escSpans), trim(a.bytes)
	a.syms.names = trim(a.syms.names)
	n := len(a.kind)
	a.elemAttr, a.defaulted = NewBitmask(n), NewBitmask(n)
	for i, k := range a.kind {
		if k == ElementNode || k == AttributeNode {
			a.elemAttr.Set(i)
		}
	}
	for _, i := range b.defaulted {
		a.defaulted.Set(int(i))
	}
	if len(b.escaped) > 0 {
		escaped := NewBitmask(n)
		for _, i := range b.escaped {
			escaped.Set(int(i))
		}
		a.escaped = newRankMask(escaped)
	}
	a.version, a.encoding, a.standalone = meta.Version, meta.Encoding, meta.Standalone
	if meta.DocType != nil {
		dt := *meta.DocType
		a.docType = &dt
	}
	b.a = nil
	return &Document{Version: meta.Version, Encoding: meta.Encoding, Standalone: meta.Standalone,
		DocType: meta.DocType, nodeCount: n, arena: a}
}

// trim returns s without spare capacity, copying it only if it has any.
func trim[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// buildArena flattens a document's tree into a fresh arena through a
// Builder. The tree's preorder is the builder's, so each node's arena
// index is the Order a Renumber gives it.
func buildArena(d *Document) *Arena {
	b := NewBuilder(d.NodeCount())
	for _, c := range d.Node.Children {
		b.addTree(c)
	}
	return b.Finish(d).arena
}

// addTree feeds nd and its subtree to the builder in preorder.
func (b *Builder) addTree(nd *Node) {
	switch nd.Type {
	case ElementNode:
		b.StartElement(nd.Name)
		for _, at := range nd.Attrs {
			b.Attr(at.Name, at.Data, at.Defaulted)
		}
		for _, c := range nd.Children {
			b.addTree(c)
		}
		b.EndElement()
	case TextNode, CDATANode, CommentNode, ProcessingInstructionNode:
		b.Leaf(nd.Type, nd.Name, nd.Data)
	}
}
