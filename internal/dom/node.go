package dom

import "fmt"

// NodeType discriminates the kinds of nodes a Document may contain. It
// is one byte, the size of the arena's per-slot kind.
type NodeType uint8

// Node types, mirroring the DOM Level 1 node taxonomy restricted to the
// logical structure the paper considers (entities and notations are
// handled at parse time and do not appear in the tree).
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	AttributeNode
	TextNode
	CDATANode
	CommentNode
	ProcessingInstructionNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	case CDATANode:
		return "cdata"
	case CommentNode:
		return "comment"
	case ProcessingInstructionNode:
		return "pi"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Node is a single node of the document tree. A node is owned by at most
// one Document and must not be shared between documents; use Clone to
// copy subtrees across documents.
type Node struct {
	// Type discriminates which of the remaining fields are meaningful.
	Type NodeType

	// Name is the element tag name, the attribute name, or the
	// processing-instruction target. Empty for text, CDATA and comments.
	Name string

	// Data holds character data: the text/CDATA content, the comment
	// body, the PI instruction, or the attribute value.
	Data string

	// Parent is the containing element (or document for top-level
	// nodes). For attribute nodes Parent is the owning element.
	Parent *Node

	// Children are the child nodes in document order. Attribute nodes
	// never appear here; they live in Attrs of their owning element.
	Children []*Node

	// Attrs are the attribute nodes of an element, in declaration
	// order. Nil for non-element nodes.
	Attrs []*Node

	// Order is the document-order index assigned by Document.Renumber.
	// The ordering convention is: an element precedes its attributes,
	// which precede its children.
	Order int

	// Defaulted marks attribute nodes that were not present in the
	// source document but were supplied by DTD attribute defaulting.
	Defaulted bool
}

// Index returns the node's dense preorder index within its document —
// the same value as Order, under the name the mask pipeline uses.
// Indexes are dense in [0, Document.NodeCount()) after Renumber; they
// key the per-request labeling slice and the visibility Bitmask, and
// are reassigned (invalidating both) whenever the document changes.
func (n *Node) Index() int { return n.Order }

// NewElement returns a parentless element node with the given tag name.
func NewElement(name string) *Node {
	return &Node{Type: ElementNode, Name: name}
}

// NewText returns a parentless text node with the given character data.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// AppendChild appends c to n's children and sets its parent. It panics
// if c is an attribute node (use SetAttr) or if c already has a
// parent.
func (n *Node) AppendChild(c *Node) {
	if c.Type == AttributeNode {
		panic("dom: AppendChild called with attribute node")
	}
	if c.Parent != nil {
		panic("dom: AppendChild called with attached node")
	}
	c.Parent = n
	n.Children = append(n.Children, c)
}

// RemoveChild detaches c from n's children. It reports whether c was
// found (and removed).
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return true
		}
	}
	return false
}

// SetAttr sets attribute name to value on element n, creating or
// replacing as needed, and returns the attribute node.
func (n *Node) SetAttr(name, value string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			a.Data = value
			return a
		}
	}
	a := &Node{Type: AttributeNode, Name: name, Data: value, Parent: n}
	n.Attrs = append(n.Attrs, a)
	return a
}

// AttrNode returns the attribute node with the given name, or nil.
func (n *Node) AttrNode(name string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	if a := n.AttrNode(name); a != nil {
		return a.Data, true
	}
	return "", false
}

// RemoveAttr removes the named attribute, reporting whether it existed.
func (n *Node) RemoveAttr(name string) bool {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			a.Parent = nil
			return true
		}
	}
	return false
}

// ChildElements returns the element children of n, in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first child element named name, or the
// first child element of any name if name is empty. Returns nil if none.
func (n *Node) FirstChildElement(name string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && (name == "" || c.Name == name) {
			return c
		}
	}
	return nil
}

// Text returns the concatenation of all descendant text and CDATA
// character data, in document order. For attribute nodes it returns the
// attribute value. This matches the XPath string-value of an element.
func (n *Node) Text() string {
	switch n.Type {
	case AttributeNode, TextNode, CDATANode:
		return n.Data
	}
	var buf []byte
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			switch c.Type {
			case TextNode, CDATANode:
				buf = append(buf, c.Data...)
			case ElementNode:
				walk(c)
			}
		}
	}
	walk(n)
	return string(buf)
}

// Root returns the topmost ancestor of n (the document node if the tree
// is rooted in a Document, otherwise the highest detached ancestor).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Depth returns the number of ancestors of n. The document node (or a
// detached subtree root) has depth 0.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Path returns a human-readable slash path from the root to n, such as
// "/laboratory/project/@name". It is intended for diagnostics, not for
// round-tripping through the XPath engine.
func (n *Node) Path() string {
	if n.Parent == nil {
		if n.Type == DocumentNode {
			return "/"
		}
		return "/" + n.label()
	}
	parent := n.Parent.Path()
	if parent == "/" {
		return "/" + n.label()
	}
	return parent + "/" + n.label()
}

func (n *Node) label() string { return stepLabel(n.Type, n.Name) }

// stepLabel is one step of a diagnostic path: the element name, the
// attribute name behind '@', or the node test of a nameless kind.
func stepLabel(t NodeType, name string) string {
	switch t {
	case ElementNode:
		return name
	case AttributeNode:
		return "@" + name
	case TextNode, CDATANode:
		return "text()"
	case CommentNode:
		return "comment()"
	case ProcessingInstructionNode:
		return "processing-instruction()"
	default:
		return t.String()
	}
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// detached (nil parent) and retains Order values; call Renumber on the
// owning document of the copy if document order matters.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Name: n.Name, Data: n.Data, Order: n.Order, Defaulted: n.Defaulted}
	if n.Attrs != nil {
		c.Attrs = make([]*Node, len(n.Attrs))
		for i, a := range n.Attrs {
			ac := a.Clone()
			ac.Parent = c
			c.Attrs[i] = ac
		}
	}
	if n.Children != nil {
		c.Children = make([]*Node, 0, len(n.Children))
		for _, ch := range n.Children {
			cc := ch.Clone()
			cc.Parent = c
			c.Children = append(c.Children, cc)
		}
	}
	return c
}
