package dom

// DocType records the document type declaration of a document: its name
// and external identifiers. The parsed DTD itself is represented by the
// dtd package; xmlparse returns it alongside the document.
type DocType struct {
	// Name is the declared document element name.
	Name string
	// PublicID and SystemID are the external identifiers, if any.
	PublicID string
	// SystemID is the system literal of the external subset, if any.
	SystemID string
	// InternalSubset is the verbatim text between '[' and ']' of the
	// DOCTYPE declaration, preserved for re-serialization.
	InternalSubset string
}

// Document is the root of a DOM tree. Its node has Type DocumentNode and
// its children are the top-level comments, processing instructions, and
// the single document element.
//
// A document may instead be arena-only: it carries its arena and
// metadata but no pointer tree, and Node is nil. The parser returns
// documents this way (Builder.Finish), and the store keeps them so,
// since every read sweep runs over the arena and a tree would more than
// double the document's heap. Every method works on an arena-only
// document: the read-side ones through ReadArena or ReadTree, and a
// mutation first gives the document a tree of its own.
type Document struct {
	// Node is the document node; Node.Children holds the prolog items
	// and the document element. It is nil on an arena-only document.
	Node *Node

	// XMLDecl preserves the XML declaration attributes, if present.
	Version    string
	Encoding   string
	Standalone string // "", "yes", or "no"

	// DocType is the document type declaration, or nil.
	DocType *DocType

	// nodeCount is the number of nodes assigned by the last Renumber;
	// zero means the document has never been renumbered.
	nodeCount int

	// arena is the struct-of-arrays representation of the document,
	// written by the parser or built from the tree by BuildArena, and
	// discarded by Renumber: an arena is only meaningful for the
	// numbering generation it was built from. Like the numbering
	// itself, the arena must be built before the document is shared
	// between goroutines; afterwards any number of readers may use it
	// concurrently.
	arena *Arena
}

// NewDocument returns an empty document with a fresh document node.
func NewDocument() *Document {
	return &Document{Node: &Node{Type: DocumentNode}, Version: "1.0"}
}

// ReadTree returns the document's pointer tree: the document itself when
// it has one, or, on an arena-only document, a fresh copy materialized
// from the arena that is not cached — the mirror of ReadArena. The copy
// is numbered like the arena (a node's Order is its arena index), so
// labelings and masks computed against the document apply to it
// unchanged, and the caller may mutate it freely. The serve path never
// calls it; it costs one copy of the document per call.
func (d *Document) ReadTree() *Document {
	if !d.isArenaOnly() {
		return d
	}
	return d.arena.Materialize()
}

// isArenaOnly reports whether d carries an arena and no tree.
func (d *Document) isArenaOnly() bool { return d.Node == nil && d.arena != nil }

// ownTree gives an arena-only document a tree of its own before a
// mutation; the arena stays until the caller's Renumber discards it, as
// on any parsed document.
func (d *Document) ownTree() {
	if d.isArenaOnly() {
		d.Node = d.arena.Materialize().Node
	}
}

// DocumentElement returns the document's root element, or nil if the
// document has none (an invalid state outside of construction). On an
// arena-only document it is the root of a fresh ReadTree copy.
func (d *Document) DocumentElement() *Node {
	if d == nil {
		return nil
	}
	if t := d.ReadTree(); t.Node != nil {
		return t.Node.FirstChildElement("")
	}
	return nil
}

// SetDocumentElement installs e as the document element, replacing any
// existing one and preserving prolog comments/PIs.
func (d *Document) SetDocumentElement(e *Node) {
	d.ownTree()
	if old := d.DocumentElement(); old != nil {
		d.Node.RemoveChild(old)
	}
	d.Node.AppendChild(e)
}

// Renumber assigns document-order indexes to every node in the document:
// a preorder walk in which each element precedes its attributes, which
// precede its children. XPath node-set ordering relies on these indexes.
// It returns the number of nodes numbered. An arena-only document is
// numbered by its arena already; Renumber leaves it as it is.
func (d *Document) Renumber() int {
	if d.isArenaOnly() {
		return d.nodeCount
	}
	next := 0
	var walk func(*Node)
	walk = func(n *Node) {
		n.Order = next
		next++
		for _, a := range n.Attrs {
			a.Order = next
			next++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.Node)
	d.nodeCount = next
	d.arena = nil // indexes moved; any arena is stale
	return next
}

// BuildArena flattens the document's tree into its struct-of-arrays
// representation, caches it on the document, and returns it, so a tree
// built in memory can be shared like a parsed document; mutating
// callers must Renumber (which discards the arena) and rebuild before
// sharing the document again. An arena-only document returns the arena
// it carries.
func (d *Document) BuildArena() *Arena {
	if d.isArenaOnly() {
		return d.arena
	}
	d.arena = buildArena(d)
	return d.arena
}

// ReadArena returns the document's arena, or, when none is built, a
// fresh one that is not cached on the document — so, unlike BuildArena, it
// is safe to call on a renumbered document that readers already share.
// Every read-side sweep (labeling, visibility, masked serialization,
// XPath, DTD validation) goes through it. Documents the parser built
// are their arena and pay nothing; only documents built in memory
// without one (hand-built trees, clones) pay for the flattening, on
// every call.
func (d *Document) ReadArena() *Arena {
	if d.arena != nil {
		return d.arena
	}
	return buildArena(d)
}

// NodeCount returns the number of nodes in the document as of the last
// Renumber, renumbering first if the document never was. Together with
// Renumber it maintains the dense-index invariant the mask pipeline
// relies on: every node's Order lies in [0, NodeCount()) and no two
// nodes share one. Callers that mutate the tree must Renumber before
// relying on NodeCount again; documents shared between goroutines must
// be renumbered before they are shared (the parser does this).
func (d *Document) NodeCount() int {
	if d.nodeCount == 0 {
		return d.Renumber()
	}
	return d.nodeCount
}

// Clone returns a deep copy of the document, renumbered. The copy
// carries no arena.
func (d *Document) Clone() *Document { return d.CloneMasked(nil) }

// CloneMasked returns a deep copy of the document restricted to the
// mask-visible nodes: an invisible node is dropped together with its
// subtree (the mask computed by the security engine never marks a node
// visible under an invisible ancestor, so no content is lost). A nil
// mask clones everything. The copy is renumbered.
//
// This materializes a masked view as an ordinary document — the same
// tree core.PruneDoc leaves behind — for consumers that need a
// standalone tree (validation, offline tools, the reference pipeline
// tests compare against). The serve path never calls it; it
// serializes through the mask instead. An arena-only document is
// copied straight out of its arena.
func (d *Document) CloneMasked(mask Bitmask) *Document {
	if d.isArenaOnly() {
		return d.arena.MaterializeMasked(mask)
	}
	var cloneNode func(n *Node) *Node
	cloneNode = func(n *Node) *Node {
		c := &Node{Type: n.Type, Name: n.Name, Data: n.Data, Order: n.Order, Defaulted: n.Defaulted}
		for _, a := range n.Attrs {
			if !mask.Visible(a) {
				continue
			}
			ac := cloneNode(a)
			ac.Parent = c
			c.Attrs = append(c.Attrs, ac)
		}
		for _, ch := range n.Children {
			if !mask.Visible(ch) {
				continue
			}
			cc := cloneNode(ch)
			cc.Parent = c
			c.Children = append(c.Children, cc)
		}
		return c
	}
	c := &Document{
		Node:       cloneNode(d.Node),
		Version:    d.Version,
		Encoding:   d.Encoding,
		Standalone: d.Standalone,
	}
	if d.DocType != nil {
		dt := *d.DocType
		c.DocType = &dt
	}
	c.Renumber()
	return c
}

// CountNodes returns the number of element and attribute nodes in the
// document, the unit in which the paper's labeling algorithm works.
// When an arena is built the count was taken at build time and no walk
// happens.
func (d *Document) CountNodes() int {
	if d.arena != nil {
		return d.arena.CountElemAttrs()
	}
	n := 0
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Type == ElementNode {
			n++
			n += len(m.Attrs)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(d.Node)
	return n
}

// Walk visits every node of the document in document order (elements
// before their attributes before their children) and calls f on each.
// If f returns false the walk skips the node's attributes and children.
// An arena-only document is walked over a fresh ReadTree copy.
func (d *Document) Walk(f func(*Node) bool) {
	var walk func(*Node)
	walk = func(n *Node) {
		if !f(n) {
			return
		}
		for _, a := range n.Attrs {
			f(a)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.ReadTree().Node)
}
