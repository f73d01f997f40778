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
}

// NewBuilder returns a builder holding the open document node, with
// room for about nodes nodes before the arrays grow.
func NewBuilder(nodes int) *Builder {
	nodes = max(nodes, 1)
	b := &Builder{a: &Arena{
		kind:        make([]NodeType, 0, nodes),
		name:        make([]Sym, 0, nodes),
		parent:      make([]int32, 0, nodes),
		firstChild:  make([]int32, 0, nodes),
		nextSibling: make([]int32, 0, nodes),
		attrStart:   make([]int32, 0, nodes),
		attrEnd:     make([]int32, 0, nodes),
		raw:         make([]span, 0, nodes),
		esc:         make([]span, 0, nodes),
		syms:        newSymTab(),
	}}
	b.open = append(b.open, struct{ i, last int32 }{b.add(DocumentNode, 0, span{}, span{}), -1})
	return b
}

// add appends one node under the innermost open node and returns its
// index; a non-attribute node is linked as the parent's last child.
func (b *Builder) add(k NodeType, name Sym, raw, esc span) int32 {
	a := b.a
	i, p := int32(len(a.kind)), int32(-1)
	if n := len(b.open); n > 0 {
		top := &b.open[n-1]
		p = top.i
		if k != AttributeNode {
			if top.last < 0 {
				a.firstChild[p] = i
			} else {
				a.nextSibling[top.last] = i
			}
			top.last = i
		}
	}
	a.kind = append(a.kind, k)
	a.name = append(a.name, name)
	a.parent = append(a.parent, p)
	a.firstChild = append(a.firstChild, -1)
	a.nextSibling = append(a.nextSibling, -1)
	a.attrStart = append(a.attrStart, i+1)
	a.attrEnd = append(a.attrEnd, i+1)
	a.raw = append(a.raw, raw)
	a.esc = append(a.esc, esc)
	return i
}

// StartElement opens an element named name under the innermost open
// node.
func (b *Builder) StartElement(name string) {
	i := b.add(ElementNode, b.a.syms.intern(name), span{}, span{})
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
	raw := a.appendRaw(value)
	esc := a.appendEsc(raw, EscapeAttr(value))
	i := b.add(AttributeNode, s, raw, esc)
	a.attrEnd[e] = i + 1
	if defaulted {
		b.defaulted = append(b.defaulted, i)
	}
	a.elemAttrs++
	a.sizeHint += len(name) + 4 + int(esc.n)
}

// Leaf adds a text, CDATA, comment or processing-instruction node of
// kind k; target names a processing instruction. Text is escaped once
// here and CDATA pre-rendered as its complete markup, so serializing
// either is one copy.
func (b *Builder) Leaf(k NodeType, target, data string) {
	a := b.a
	raw := a.appendRaw(data)
	esc, name, markup := raw, Sym(0), 0
	switch k {
	case TextNode:
		esc = a.appendEsc(raw, EscapeText(data))
	case CDATANode:
		esc = a.appendRaw(renderCDATA(data))
	case CommentNode:
		markup = len("<!---->")
	case ProcessingInstructionNode:
		name, markup = a.syms.intern(target), len(target)+len("<? ?>")
	}
	b.add(k, name, raw, esc)
	a.sizeHint += int(esc.n) + markup
}

// Finish completes the arena and returns it as an arena-only document
// (Node is nil) carrying meta's XML declaration and DOCTYPE. Every
// array is trimmed to its length, so a stored arena carries no append
// slack. The builder must not be used afterwards.
func (b *Builder) Finish(meta *Document) *Document {
	a := b.a
	a.kind, a.name = trim(a.kind), trim(a.name)
	a.parent, a.firstChild, a.nextSibling = trim(a.parent), trim(a.firstChild), trim(a.nextSibling)
	a.attrStart, a.attrEnd = trim(a.attrStart), trim(a.attrEnd)
	a.raw, a.esc, a.bytes = trim(a.raw), trim(a.esc), trim(a.bytes)
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
