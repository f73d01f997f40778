package xmlparse

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unicode"
	"unicode/utf8"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
)

// SyntaxError reports a well-formedness violation with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Loader resolves external DTD subsets referenced by SYSTEM identifiers.
type Loader interface {
	// LoadDTD returns the text of the external DTD subset identified by
	// systemID.
	LoadDTD(systemID string) (string, error)
}

// FileLoader loads external subsets from the filesystem, resolving
// relative system identifiers against Base.
type FileLoader struct {
	// Base is the directory against which relative system identifiers
	// resolve; empty means the current directory.
	Base string
}

// LoadDTD implements Loader.
func (l FileLoader) LoadDTD(systemID string) (string, error) {
	p := systemID
	if !filepath.IsAbs(p) {
		p = filepath.Join(l.Base, p)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// MapLoader serves external subsets from an in-memory map, keyed by
// system identifier. It is the hermetic loader used in tests and by the
// security processor's document store.
type MapLoader map[string]string

// LoadDTD implements Loader.
func (l MapLoader) LoadDTD(systemID string) (string, error) {
	s, ok := l[systemID]
	if !ok {
		return "", fmt.Errorf("xmlparse: no DTD registered for system id %q", systemID)
	}
	return s, nil
}

// Options configures parsing.
type Options struct {
	// Loader resolves external DTD subsets. If nil, external subsets
	// are skipped (the internal subset is still parsed).
	Loader Loader

	// KeepWhitespace preserves whitespace-only text nodes. By default
	// they are dropped, which matches the paper's element-structure
	// view of documents and keeps golden outputs stable.
	KeepWhitespace bool

	// KeepComments preserves comment nodes in the tree.
	KeepComments bool

	// ApplyDefaults adds DTD-defaulted attributes to elements as the
	// document is parsed (requires a DTD).
	ApplyDefaults bool

	// MaxEntityExpansion caps the cumulative bytes of internal
	// general-entity replacement text one parse may expand, across
	// content and attribute values. Recursion depth alone does not
	// bound work — a shallow chain of doubling entities ("billion
	// laughs") multiplies output exponentially — so the total is
	// budgeted too. Non-positive selects the 1 MiB default.
	MaxEntityExpansion int
}

// defaultMaxEntityExpansion is the entity-expansion budget when
// Options.MaxEntityExpansion is unset: far above any legitimate
// document's entity usage, far below an amplification attack's output.
const defaultMaxEntityExpansion = 1 << 20

// Result carries everything a parse produces.
type Result struct {
	// Doc is the document tree, renumbered in document order. It is
	// the adapter view of the document — DTD validation, updates and
	// the reference pipeline tests operate on it — and it carries the
	// arena (Doc.ReadArena() returns Arena).
	Doc *dom.Document
	// Arena is the struct-of-arrays representation of the same
	// document, built at parse time: the artifact the serve path's
	// label, mask, unparse and XPath sweeps run over. Indexes are
	// interchangeable with Doc's preorder numbering.
	Arena *dom.Arena
	// DTD is the parsed document type definition (internal plus
	// external subset), or nil if the document has no DOCTYPE.
	DTD *dtd.DTD
}

// Parse parses a complete XML document. A leading UTF-8 byte-order
// mark is accepted and skipped.
func Parse(input string, opts Options) (*Result, error) {
	input = strings.TrimPrefix(input, "\xef\xbb\xbf")
	p := &parser{src: input, line: 1, col: 1, opts: opts}
	p.entBudget = p.maxEntityExpansion()
	return p.document()
}

// MustParse is Parse for known-good documents; it panics on error.
func MustParse(input string, opts Options) *Result {
	r, err := Parse(input, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseFile parses the file at path, resolving external DTDs relative to
// its directory unless opts.Loader is already set.
func ParseFile(path string, opts Options) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if opts.Loader == nil {
		opts.Loader = FileLoader{Base: filepath.Dir(path)}
	}
	return Parse(string(b), opts)
}

type parser struct {
	src       string
	pos       int
	line, col int
	opts      Options
	dtd       *dtd.DTD
	entDepth  int
	entBudget int // remaining entity-expansion bytes
}

// chargeEntity debits n bytes of entity replacement text against the
// parse's cumulative expansion budget.
func (p *parser) chargeEntity(name string, n int) error {
	if n > p.entBudget {
		return p.errf("entity expansion of &%s; exceeds the %d-byte budget (billion-laughs protection; raise Options.MaxEntityExpansion if legitimate)",
			name, p.maxEntityExpansion())
	}
	p.entBudget -= n
	return nil
}

func (p *parser) maxEntityExpansion() int {
	if p.opts.MaxEntityExpansion > 0 {
		return p.opts.MaxEntityExpansion
	}
	return defaultMaxEntityExpansion
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

// advance moves n bytes forward, maintaining the line/col counters.
func (p *parser) advance(n int) {
	for i := 0; i < n && p.pos < len(p.src); i++ {
		if p.src[p.pos] == '\n' {
			p.line++
			p.col = 1
		} else {
			p.col++
		}
		p.pos++
	}
}

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) consume(s string) bool {
	if p.hasPrefix(s) {
		p.advance(len(s))
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if !p.consume(s) {
		return p.errf("expected %q, found %q", s, snippet(p.src[p.pos:]))
	}
	return nil
}

func snippet(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

func (p *parser) skipWS() bool {
	any := false
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.advance(1)
			any = true
		default:
			return any
		}
	}
	return any
}

func isNameStart(r rune) bool {
	return r == '_' || r == ':' || unicode.IsLetter(r)
}

func isNameRune(r rune) bool {
	return isNameStart(r) || r == '-' || r == '.' || unicode.IsDigit(r)
}

func (p *parser) name() (string, error) {
	start := p.pos
	r, size := utf8.DecodeRuneInString(p.src[p.pos:])
	if size == 0 || !isNameStart(r) {
		return "", p.errf("expected name")
	}
	p.advance(size)
	for !p.eof() {
		r, size = utf8.DecodeRuneInString(p.src[p.pos:])
		if !isNameRune(r) {
			break
		}
		p.advance(size)
	}
	return p.src[start:p.pos], nil
}

// document parses the whole document entity.
func (p *parser) document() (*Result, error) {
	doc := dom.NewDocument()
	if err := p.prolog(doc); err != nil {
		return nil, err
	}
	root, err := p.element()
	if err != nil {
		return nil, err
	}
	doc.Node.AppendChild(root)
	// Misc after the document element: comments, PIs, whitespace.
	for {
		p.skipWS()
		if p.eof() {
			break
		}
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.comment()
			if err != nil {
				return nil, err
			}
			if p.opts.KeepComments {
				doc.Node.AppendChild(c)
			}
		case p.hasPrefix("<?"):
			pi, err := p.procInst()
			if err != nil {
				return nil, err
			}
			doc.Node.AppendChild(pi)
		default:
			return nil, p.errf("content after document element: %q", snippet(p.src[p.pos:]))
		}
	}
	if p.dtd != nil && p.opts.ApplyDefaults {
		applyDefaults(p.dtd, root)
	}
	doc.Renumber()
	// Flatten into the struct-of-arrays arena while the tree is hot:
	// names are interned, character data is escaped once into the
	// shared byte buffer, and every later request sweeps the arrays.
	arena := doc.BuildArena()
	return &Result{Doc: doc, Arena: arena, DTD: p.dtd}, nil
}

// applyDefaults adds DTD-defaulted attributes without validating.
func applyDefaults(d *dtd.DTD, n *dom.Node) {
	for _, def := range d.Attlists[n.Name] {
		if def.Default != dtd.ValueDefault && def.Default != dtd.FixedDefault {
			continue
		}
		if _, present := n.Attr(def.Name); !present {
			a := n.SetAttr(def.Name, def.Value)
			a.Defaulted = true
		}
	}
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			applyDefaults(d, c)
		}
	}
}

func (p *parser) prolog(doc *dom.Document) error {
	if p.hasPrefix("<?xml") && len(p.src) > p.pos+5 &&
		(p.src[p.pos+5] == ' ' || p.src[p.pos+5] == '\t' || p.src[p.pos+5] == '\r' || p.src[p.pos+5] == '\n') {
		if err := p.xmlDecl(doc); err != nil {
			return err
		}
	}
	for {
		p.skipWS()
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.comment()
			if err != nil {
				return err
			}
			if p.opts.KeepComments {
				doc.Node.AppendChild(c)
			}
		case p.hasPrefix("<?"):
			pi, err := p.procInst()
			if err != nil {
				return err
			}
			doc.Node.AppendChild(pi)
		case p.hasPrefix("<!DOCTYPE"):
			if doc.DocType != nil {
				return p.errf("multiple DOCTYPE declarations")
			}
			if err := p.doctype(doc); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func (p *parser) xmlDecl(doc *dom.Document) error {
	p.advance(len("<?xml"))
	for {
		had := p.skipWS()
		if p.consume("?>") {
			if doc.Version == "" {
				return p.errf("XML declaration missing version")
			}
			return nil
		}
		if !had {
			return p.errf("malformed XML declaration")
		}
		key, err := p.name()
		if err != nil {
			return err
		}
		p.skipWS()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipWS()
		val, err := p.quotedLiteral()
		if err != nil {
			return err
		}
		switch key {
		case "version":
			doc.Version = val
		case "encoding":
			low := strings.ToLower(val)
			if low != "utf-8" && low != "utf8" && low != "us-ascii" && low != "ascii" {
				return p.errf("unsupported encoding %q (parser reads UTF-8)", val)
			}
			doc.Encoding = val
		case "standalone":
			if val != "yes" && val != "no" {
				return p.errf("standalone must be yes or no, got %q", val)
			}
			doc.Standalone = val
		default:
			return p.errf("unknown XML declaration attribute %q", key)
		}
	}
}

// quotedLiteral reads a quoted string without reference expansion.
func (p *parser) quotedLiteral() (string, error) {
	q := p.peek()
	if q != '\'' && q != '"' {
		return "", p.errf("expected quoted literal")
	}
	p.advance(1)
	start := p.pos
	i := strings.IndexByte(p.src[p.pos:], q)
	if i < 0 {
		return "", p.errf("unterminated literal")
	}
	val := p.src[start : start+i]
	p.advance(i + 1)
	return val, nil
}

func (p *parser) doctype(doc *dom.Document) error {
	p.advance(len("<!DOCTYPE"))
	p.skipWS()
	name, err := p.name()
	if err != nil {
		return err
	}
	dt := &dom.DocType{Name: name}
	p.skipWS()
	switch {
	case p.hasPrefix("SYSTEM"):
		p.advance(len("SYSTEM"))
		p.skipWS()
		dt.SystemID, err = p.quotedLiteral()
		if err != nil {
			return err
		}
	case p.hasPrefix("PUBLIC"):
		p.advance(len("PUBLIC"))
		p.skipWS()
		dt.PublicID, err = p.quotedLiteral()
		if err != nil {
			return err
		}
		p.skipWS()
		dt.SystemID, err = p.quotedLiteral()
		if err != nil {
			return err
		}
	}
	p.skipWS()
	if p.peek() == '[' {
		p.advance(1)
		start := p.pos
		depth := 0
		for {
			if p.eof() {
				return p.errf("unterminated DOCTYPE internal subset")
			}
			c := p.peek()
			if c == '<' {
				depth++
			} else if c == '>' && depth > 0 {
				depth--
			} else if c == ']' && depth == 0 {
				break
			}
			// Quoted literals inside declarations may contain ']' or
			// '<'; skip them atomically.
			if c == '"' || c == '\'' {
				q := c
				p.advance(1)
				i := strings.IndexByte(p.src[p.pos:], q)
				if i < 0 {
					return p.errf("unterminated literal in internal subset")
				}
				p.advance(i + 1)
				continue
			}
			p.advance(1)
		}
		dt.InternalSubset = p.src[start:p.pos]
		p.advance(1) // ']'
		p.skipWS()
	}
	if err := p.expect(">"); err != nil {
		return err
	}
	doc.DocType = dt

	// Parse the subsets: internal first (its declarations are binding),
	// then the external subset if a loader can fetch it.
	p.dtd = dtd.NewDTD()
	p.dtd.Name = name
	if dt.InternalSubset != "" {
		if err := p.dtd.ParseSubset(dt.InternalSubset); err != nil {
			return p.errf("internal subset: %v", err)
		}
	}
	if dt.SystemID != "" && p.opts.Loader != nil {
		ext, err := p.opts.Loader.LoadDTD(dt.SystemID)
		if err != nil {
			return p.errf("loading external subset %q: %v", dt.SystemID, err)
		}
		if err := p.dtd.ParseSubset(ext); err != nil {
			return p.errf("external subset %q: %v", dt.SystemID, err)
		}
	}
	return nil
}

// element parses an element and its content, starting at '<'.
func (p *parser) element() (*dom.Node, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	el := dom.NewElement(name)
	seen := map[string]bool{}
	for {
		had := p.skipWS()
		switch {
		case p.consume("/>"):
			return el, nil
		case p.consume(">"):
			if err := p.content(el); err != nil {
				return nil, err
			}
			return el, p.endTag(name)
		default:
			if !had {
				return nil, p.errf("malformed start tag for %q", name)
			}
			aname, err := p.name()
			if err != nil {
				return nil, err
			}
			if seen[aname] {
				return nil, p.errf("duplicate attribute %q on element %q", aname, name)
			}
			seen[aname] = true
			p.skipWS()
			if err := p.expect("="); err != nil {
				return nil, err
			}
			p.skipWS()
			aval, err := p.attValue()
			if err != nil {
				return nil, err
			}
			el.SetAttr(aname, aval)
		}
	}
}

func (p *parser) endTag(name string) error {
	if err := p.expect("</"); err != nil {
		return err
	}
	got, err := p.name()
	if err != nil {
		return err
	}
	if got != name {
		return p.errf("mismatched end tag: expected </%s>, got </%s>", name, got)
	}
	p.skipWS()
	return p.expect(">")
}

// attValue parses a quoted attribute value with reference expansion and
// attribute-value normalization (whitespace characters become spaces).
func (p *parser) attValue() (string, error) {
	q := p.peek()
	if q != '\'' && q != '"' {
		return "", p.errf("expected quoted attribute value")
	}
	p.advance(1)
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errf("unterminated attribute value")
		}
		c := p.peek()
		switch {
		case c == q:
			p.advance(1)
			return b.String(), nil
		case c == '<':
			return "", p.errf("'<' not allowed in attribute value")
		case c == '&':
			s, err := p.reference(true)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		case c == '\t' || c == '\n' || c == '\r':
			b.WriteByte(' ')
			p.advance(1)
		default:
			b.WriteByte(c)
			p.advance(1)
		}
	}
}

// reference expands a reference beginning with '&'. In attribute values
// (inAttr), internal entity replacement text is used literally; markup
// inside it is forbidden. In content, internal entities whose text
// contains markup are spliced into the input and reparsed.
func (p *parser) reference(inAttr bool) (string, error) {
	if r, n, ok := dtd.DecodeCharRef(p.src[p.pos:]); ok {
		p.advance(n)
		return string(r), nil
	}
	if p.hasPrefix("&#") {
		return "", p.errf("malformed character reference")
	}
	p.advance(1) // '&'
	name, err := p.name()
	if err != nil {
		return "", err
	}
	if err := p.expect(";"); err != nil {
		return "", err
	}
	switch name {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "apos":
		return "'", nil
	case "quot":
		return `"`, nil
	}
	var ent *dtd.EntityDecl
	if p.dtd != nil {
		ent = p.dtd.Entities[name]
	}
	if ent == nil {
		return "", p.errf("undeclared entity &%s;", name)
	}
	if !ent.IsInternal() {
		if ent.NDataName != "" {
			return "", p.errf("reference to unparsed entity &%s;", name)
		}
		// External parsed entities are not fetched (physical structure
		// is out of the paper's scope); treat as empty.
		return "", nil
	}
	if err := p.chargeEntity(name, len(ent.Value)); err != nil {
		return "", err
	}
	if inAttr {
		if strings.ContainsAny(ent.Value, "<") {
			return "", p.errf("entity &%s; contains '<', not allowed in attribute value", name)
		}
		return p.expandEntityText(ent.Value, 0)
	}
	if !strings.ContainsAny(ent.Value, "<&") {
		return ent.Value, nil
	}
	// Replacement text contains markup or further references: splice it
	// into the input so it is parsed in place.
	if p.entDepth > 32 {
		return "", p.errf("entity nesting too deep expanding &%s; (recursion?)", name)
	}
	p.entDepth++
	p.src = p.src[:p.pos] + ent.Value + p.src[p.pos:]
	return "", nil
}

// expandEntityText expands character and general entity references in
// entity replacement text used inside attribute values. Nested
// expansions are charged against the same cumulative budget as content
// expansions.
func (p *parser) expandEntityText(s string, depth int) (string, error) {
	if depth > 32 {
		return "", fmt.Errorf("xml: entity recursion in attribute value")
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		if r, n, ok := dtd.DecodeCharRef(s[i:]); ok {
			b.WriteRune(r)
			i += n
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", fmt.Errorf("xml: malformed reference in entity text")
		}
		name := s[i+1 : i+end]
		i += end + 1
		switch name {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "apos":
			b.WriteByte('\'')
		case "quot":
			b.WriteByte('"')
		default:
			var ent *dtd.EntityDecl
			if p.dtd != nil {
				ent = p.dtd.Entities[name]
			}
			if ent == nil || !ent.IsInternal() {
				return "", fmt.Errorf("xml: undeclared entity &%s; in attribute value", name)
			}
			if err := p.chargeEntity(name, len(ent.Value)); err != nil {
				return "", err
			}
			exp, err := p.expandEntityText(ent.Value, depth+1)
			if err != nil {
				return "", err
			}
			b.WriteString(exp)
		}
	}
	return b.String(), nil
}

// content parses element content until the matching end tag.
func (p *parser) content(el *dom.Node) error {
	var text strings.Builder
	flush := func() {
		if text.Len() == 0 {
			return
		}
		s := text.String()
		text.Reset()
		if !p.opts.KeepWhitespace && strings.TrimSpace(s) == "" {
			return
		}
		el.AppendChild(dom.NewText(s))
	}
	for {
		if p.eof() {
			return p.errf("unexpected end of input inside element %q", el.Name)
		}
		switch {
		case p.hasPrefix("</"):
			flush()
			return nil
		case p.hasPrefix("<!--"):
			flush()
			c, err := p.comment()
			if err != nil {
				return err
			}
			if p.opts.KeepComments {
				el.AppendChild(c)
			}
		case p.hasPrefix("<![CDATA["):
			cd, err := p.cdata()
			if err != nil {
				return err
			}
			flush()
			el.AppendChild(cd)
		case p.hasPrefix("<?"):
			flush()
			pi, err := p.procInst()
			if err != nil {
				return err
			}
			el.AppendChild(pi)
		case p.peek() == '<':
			flush()
			child, err := p.element()
			if err != nil {
				return err
			}
			el.AppendChild(child)
		case p.peek() == '&':
			s, err := p.reference(false)
			if err != nil {
				return err
			}
			text.WriteString(s)
		default:
			if p.hasPrefix("]]>") {
				return p.errf("']]>' not allowed in content")
			}
			text.WriteByte(p.peek())
			p.advance(1)
		}
	}
}

func (p *parser) comment() (*dom.Node, error) {
	p.advance(4) // "<!--"
	end := strings.Index(p.src[p.pos:], "-->")
	if end < 0 {
		return nil, p.errf("unterminated comment")
	}
	body := p.src[p.pos : p.pos+end]
	if strings.Contains(body, "--") || strings.HasSuffix(body, "-") {
		return nil, p.errf("comment text must not contain '--' or end with '-'")
	}
	p.advance(end + 3)
	return dom.NewComment(body), nil
}

func (p *parser) cdata() (*dom.Node, error) {
	p.advance(len("<![CDATA["))
	end := strings.Index(p.src[p.pos:], "]]>")
	if end < 0 {
		return nil, p.errf("unterminated CDATA section")
	}
	body := p.src[p.pos : p.pos+end]
	p.advance(end + 3)
	return dom.NewCDATA(body), nil
}

func (p *parser) procInst() (*dom.Node, error) {
	p.advance(2) // "<?"
	target, err := p.name()
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(target, "xml") {
		return nil, p.errf("processing instruction target %q is reserved", target)
	}
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return nil, p.errf("unterminated processing instruction")
	}
	data := strings.TrimLeft(p.src[p.pos:p.pos+end], " \t\r\n")
	p.advance(end + 2)
	return dom.NewProcInst(target, data), nil
}
