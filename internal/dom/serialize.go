package dom

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// WriteOptions controls XML serialization ("unparsing" in the paper's
// processor terminology, step 4 of the execution cycle).
type WriteOptions struct {
	// Indent, when non-empty, pretty-prints the document with the given
	// unit of indentation. Mixed content (elements with text siblings)
	// is never re-indented, so pretty-printing preserves string values
	// of data-bearing elements.
	Indent string

	// OmitDecl suppresses the XML declaration.
	OmitDecl bool

	// OmitDocType suppresses the DOCTYPE declaration.
	OmitDocType bool

	// DocTypeSystemID overrides the DOCTYPE system identifier, used by
	// the security processor to point views at the loosened DTD.
	DocTypeSystemID string

	// Mask, when non-nil, restricts serialization to the mask-visible
	// nodes of the document: invisible elements, attributes and
	// character data are skipped as if they had been pruned from the
	// tree. This is the unparse step of the mask-based view pipeline —
	// the output is byte-identical to serializing a clone pruned to the
	// same visibility, without materializing that clone.
	Mask Bitmask
}

// EscapeText escapes character data for inclusion as XML content.
// Input with nothing to escape is returned as is. Invalid UTF-8 is
// replaced by U+FFFD, so such input is always rebuilt.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>\r") && utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#13;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// EscapeAttr escapes character data for inclusion in a double-quoted
// attribute value. Like EscapeText, it returns clean input as is.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "&<\"\t\n\r") && utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '"':
			b.WriteString("&quot;")
		case '\t':
			b.WriteString("&#9;")
		case '\n':
			b.WriteString("&#10;")
		case '\r':
			b.WriteString("&#13;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Write serializes the document to w using the given options.
func (d *Document) Write(w io.Writer, opts WriteOptions) error {
	ew := &errWriter{w: w}
	if !opts.OmitDecl {
		ew.str(`<?xml version="`)
		if d.Version != "" {
			ew.str(d.Version)
		} else {
			ew.str("1.0")
		}
		ew.str(`"`)
		if d.Encoding != "" {
			ew.str(` encoding="`)
			ew.str(EscapeAttr(d.Encoding))
			ew.str(`"`)
		}
		if d.Standalone != "" {
			ew.str(` standalone="`)
			ew.str(d.Standalone)
			ew.str(`"`)
		}
		ew.str("?>\n")
	}
	if d.DocType != nil && !opts.OmitDocType {
		ew.str("<!DOCTYPE ")
		ew.str(d.DocType.Name)
		sys := d.DocType.SystemID
		if opts.DocTypeSystemID != "" {
			sys = opts.DocTypeSystemID
		}
		switch {
		case d.DocType.PublicID != "":
			ew.str(" PUBLIC ")
			writeLiteral(ew, d.DocType.PublicID)
			ew.str(" ")
			writeLiteral(ew, sys)
		case sys != "":
			ew.str(" SYSTEM ")
			writeLiteral(ew, sys)
		}
		if d.DocType.InternalSubset != "" {
			ew.str(" [")
			ew.str(d.DocType.InternalSubset)
			ew.str("]")
		}
		ew.str(">\n")
	}
	// The body: through the arena when the document carries one
	// (pre-escaped spans, no per-line allocations) or when a mask
	// restricts it (masks are only ever swept over an arena), through
	// the pointer tree otherwise — documents built in memory and only
	// serialized (query results, update output) would pay more to
	// flatten than the arena write saves. The two writers emit
	// byte-identical output; FuzzArenaParity and the arena tests pin
	// the equivalence.
	if d.arena != nil || opts.Mask != nil {
		d.ReadArena().writeContent(ew, opts)
		return ew.err
	}
	for _, c := range d.Node.Children {
		writeNode(ew, c, opts.Indent, 0)
		if opts.Indent != "" {
			ew.str("\n")
		}
	}
	return ew.err
}

// String serializes the document with default options and returns it.
func (d *Document) String() string {
	var b strings.Builder
	_ = d.Write(&b, WriteOptions{})
	return b.String()
}

// StringIndent serializes the document pretty-printed with the given
// indent unit, without XML declaration, DOCTYPE, or trailing newline —
// a convenient form for tests and golden comparisons.
func (d *Document) StringIndent(indent string) string {
	var b strings.Builder
	_ = d.Write(&b, WriteOptions{Indent: indent, OmitDecl: true, OmitDocType: true})
	return strings.TrimRight(b.String(), "\n")
}

// MarkupString serializes the subtree rooted at n without indentation.
func MarkupString(n *Node) string {
	var b strings.Builder
	ew := &errWriter{w: &b}
	writeNode(ew, n, "", 0)
	return b.String()
}

// hasElementContent reports whether n's children are exclusively
// elements, comments and PIs (possibly with whitespace-only text), so
// that pretty-printing may safely indent them.
func hasElementContent(n *Node) bool {
	any := false
	for _, c := range n.Children {
		switch c.Type {
		case TextNode, CDATANode:
			if strings.TrimSpace(c.Data) != "" {
				return false
			}
		case ElementNode, CommentNode, ProcessingInstructionNode:
			any = true
		}
	}
	return any
}

// writeNode serializes the full subtree rooted at n.
func writeNode(w *errWriter, n *Node, indent string, depth int) {
	switch n.Type {
	case ElementNode:
		w.str("<")
		w.str(n.Name)
		for _, a := range n.Attrs {
			w.str(" ")
			w.str(a.Name)
			w.str(`="`)
			w.str(EscapeAttr(a.Data))
			w.str(`"`)
		}
		if len(n.Children) == 0 {
			w.str("/>")
			return
		}
		w.str(">")
		pretty := indent != "" && hasElementContent(n)
		for _, c := range n.Children {
			if pretty {
				if c.Type == TextNode && strings.TrimSpace(c.Data) == "" {
					continue
				}
				w.str("\n")
				w.str(strings.Repeat(indent, depth+1))
			}
			writeNode(w, c, indent, depth+1)
		}
		if pretty {
			w.str("\n")
			w.str(strings.Repeat(indent, depth))
		}
		w.str("</")
		w.str(n.Name)
		w.str(">")
	case TextNode:
		w.str(EscapeText(n.Data))
	case CDATANode:
		// A CDATA section cannot contain "]]>"; split it if needed.
		data := n.Data
		for {
			i := strings.Index(data, "]]>")
			if i < 0 {
				break
			}
			w.str("<![CDATA[")
			w.str(data[:i+2])
			w.str("]]>")
			data = data[i+2:]
		}
		w.str("<![CDATA[")
		w.str(data)
		w.str("]]>")
	case CommentNode:
		w.str("<!--")
		w.str(n.Data)
		w.str("-->")
	case ProcessingInstructionNode:
		w.str("<?")
		w.str(n.Name)
		if n.Data != "" {
			w.str(" ")
			w.str(n.Data)
		}
		w.str("?>")
	case AttributeNode:
		w.str(n.Name)
		w.str(`="`)
		w.str(EscapeAttr(n.Data))
		w.str(`"`)
	case DocumentNode:
		for _, c := range n.Children {
			writeNode(w, c, indent, depth)
		}
	}
}

// writeLiteral writes an external-identifier literal, choosing the
// quote character XML's grammar allows: double quotes unless the value
// contains one. (Go's %q escaping must not be used here: its backslash
// escapes are not XML.)
func writeLiteral(w *errWriter, s string) {
	if !strings.Contains(s, `"`) {
		w.str(`"`)
		w.str(s)
		w.str(`"`)
		return
	}
	w.str(`'`)
	w.str(s)
	w.str(`'`)
}

// errWriter folds write errors into a single sticky error so the
// serializer does not have to check every write.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func (e *errWriter) str(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *errWriter) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// maxPooledBuffer bounds the capacity of buffers returned to the pool:
// one pathological response must not pin megabytes for the lifetime of
// the process.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns a reset output buffer from the serializer pool,
// grown to sizeHint when the hint exceeds its current capacity. The
// serve path unparses every response through a pooled buffer: a masked
// view's size is stable across requests, so after warm-up the buffer
// is recycled at full size and serialization allocates nothing beyond
// the response string itself.
func GetBuffer(sizeHint int) *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	if sizeHint > b.Cap() {
		b.Grow(sizeHint)
	}
	return b
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool. The
// caller must not retain the buffer (or any slice of its bytes)
// afterwards.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}
