package authz

import (
	"context"
	"fmt"
	"strings"

	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xpath"
)

// Sign is the polarity of an authorization.
type Sign byte

// Permission and denial.
const (
	Permit Sign = '+'
	Deny   Sign = '-'
)

// String returns "+" or "-".
func (s Sign) String() string { return string(byte(s)) }

// ParseSign parses "+" or "-".
func ParseSign(s string) (Sign, error) {
	switch s {
	case "+":
		return Permit, nil
	case "-":
		return Deny, nil
	}
	return 0, fmt.Errorf("authz: invalid sign %q (want + or -)", s)
}

// Type is the propagation/override behaviour of an authorization.
type Type int

// Authorization types of Definition 3. Weak authorizations obey the
// most-specific principle within the document but are overridden by
// schema-level authorizations; they are meaningful at instance level
// only (the paper's Definition 3 note), and the Store rejects them at
// schema level.
const (
	Local Type = iota
	Recursive
	LocalWeak
	RecursiveWeak
)

// String returns the paper's abbreviation: L, R, LW, or RW.
func (t Type) String() string {
	switch t {
	case Local:
		return "L"
	case Recursive:
		return "R"
	case LocalWeak:
		return "LW"
	case RecursiveWeak:
		return "RW"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses L, R, LW, or RW (case-insensitive).
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "L":
		return Local, nil
	case "R":
		return Recursive, nil
	case "LW":
		return LocalWeak, nil
	case "RW":
		return RecursiveWeak, nil
	}
	return 0, fmt.Errorf("authz: invalid type %q (want L, R, LW, or RW)", s)
}

// IsRecursive reports whether the type propagates to sub-elements.
func (t Type) IsRecursive() bool { return t == Recursive || t == RecursiveWeak }

// IsWeak reports whether the type yields to schema-level authorizations.
func (t Type) IsWeak() bool { return t == LocalWeak || t == RecursiveWeak }

// Object names what an authorization protects: a resource URI and an
// optional path expression selecting elements/attributes within it.
type Object struct {
	// URI identifies the document or DTD.
	URI string
	// PathExpr is the XPath expression (empty selects the document
	// element, i.e. the whole document under a recursive type).
	PathExpr string
}

// String renders URI:PE (or just the URI).
func (o Object) String() string {
	if o.PathExpr == "" {
		return o.URI
	}
	return o.URI + ":" + o.PathExpr
}

// ParseObject splits "uri:pe". The first ':' that is followed by '/'
// '.' '@' or a name start is taken as the separator unless the URI
// contains a scheme ("http://..."), in which case the separator is the
// first ':' after the path's last '/'. In the common forms used by the
// paper — "laboratory.xml:/laboratory//paper" and plain URIs — this does
// the obvious thing.
func ParseObject(s string) (Object, error) {
	if s == "" {
		return Object{}, fmt.Errorf("authz: empty object")
	}
	// Skip a URL scheme prefix when present. A scheme is letters and
	// digits only ("http", "https", "file"), which keeps
	// "doc.xml://title" — a URI with a descendant path expression —
	// unambiguous.
	rest := s
	scheme := ""
	if i := strings.Index(s, "://"); i >= 0 && isScheme(s[:i]) {
		scheme = s[:i+3]
		rest = s[i+3:]
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		return Object{URI: scheme + rest[:i], PathExpr: rest[i+1:]}, nil
	}
	return Object{URI: s}, nil
}

func isScheme(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9', c == '+':
		default:
			return false
		}
	}
	return true
}

// ReadAction is the single action of the paper's model. The model field
// remains a string so that write/update extensions slot in naturally.
const ReadAction = "read"

// Authorization is an access authorization (Definition 3), optionally
// restricted to a validity window (a Section 8 extension).
type Authorization struct {
	Subject subjects.Subject
	Object  Object
	Action  string
	Sign    Sign
	Type    Type

	// Validity optionally bounds when the authorization applies; the
	// zero value means always.
	Validity Validity

	path *xpath.Path // compiled PathExpr, nil when PathExpr is empty
}

// New builds and validates an authorization, compiling its path
// expression.
func New(sub subjects.Subject, obj Object, action string, sign Sign, typ Type) (*Authorization, error) {
	a := &Authorization{Subject: sub, Object: obj, Action: action, Sign: sign, Type: typ}
	if action == "" {
		return nil, fmt.Errorf("authz: empty action")
	}
	if sign != Permit && sign != Deny {
		return nil, fmt.Errorf("authz: invalid sign %q", string(byte(sign)))
	}
	if obj.URI == "" {
		return nil, fmt.Errorf("authz: object has no URI")
	}
	if obj.PathExpr != "" {
		p, err := xpath.Compile(normalizePE(obj.PathExpr))
		if err != nil {
			return nil, fmt.Errorf("authz: object %q: %w", obj, err)
		}
		a.path = p
	}
	return a, nil
}

// normalizePE maps the paper's relative path expressions, which start
// "from a predefined starting point in the document", to absolute
// XPath: a relative expression is evaluated from anywhere in the tree
// (prefixed with //), so that "project[@type='internal']" reaches the
// project elements and "fund/ancestor::project" reaches the fund
// elements wherever they occur, as in the paper's Section 4 examples.
func normalizePE(pe string) string {
	if strings.HasPrefix(pe, "/") {
		return pe
	}
	return "//" + pe
}

// String renders the 5-tuple as the paper writes it.
func (a *Authorization) String() string {
	return fmt.Sprintf("<%s,%s,%s,%s,%s>", a.Subject, a.Object, a.Action, a.Sign, a.Type)
}

// SelectNodes evaluates the authorization's object against a document
// and returns the protected element/attribute nodes. An object without
// a path expression protects the document element. Nodes that are
// neither elements nor attributes are discarded: signs attach only to
// the units the labeling algorithm knows.
func (a *Authorization) SelectNodes(doc *dom.Document) ([]*dom.Node, error) {
	return a.SelectNodesCtx(context.Background(), doc)
}

// SelectNodesCtx is SelectNodes with per-request tracing: when ctx
// carries a trace, the path evaluation is recorded as an "xpath.eval"
// span. With an untraced context it costs exactly what SelectNodes
// does.
func (a *Authorization) SelectNodesCtx(ctx context.Context, doc *dom.Document) ([]*dom.Node, error) {
	if a.path == nil {
		root := doc.DocumentElement()
		if root == nil {
			return nil, nil
		}
		return []*dom.Node{root}, nil
	}
	nodes, err := a.path.SelectDocCtx(ctx, doc)
	if err != nil {
		return nil, err
	}
	out := nodes[:0:0]
	for _, n := range nodes {
		if n.Type == dom.ElementNode || n.Type == dom.AttributeNode {
			out = append(out, n)
		}
	}
	return out, nil
}

// SelectIndexesCtx is SelectNodesCtx in index space: the protected
// element/attribute nodes as dense preorder indexes (Node.Order values)
// in document order. When the document carries an arena, the
// evaluation never touches a *dom.Node — this is the collection route
// Engine labeling and AuthIndex fills use on arena documents. Without
// an arena it is
// SelectNodesCtx with the orders read off the selected nodes, so both
// routes return the identical index set.
func (a *Authorization) SelectIndexesCtx(ctx context.Context, doc *dom.Document) ([]int32, error) {
	ar := doc.ArenaIfBuilt()
	if ar == nil {
		nodes, err := a.SelectNodesCtx(ctx, doc)
		if err != nil {
			return nil, err
		}
		idx := make([]int32, len(nodes))
		for i, n := range nodes {
			idx[i] = int32(n.Order)
		}
		return idx, nil
	}
	if a.path == nil {
		root := ar.DocumentElement()
		if root < 0 {
			return nil, nil
		}
		return []int32{root}, nil
	}
	idx, _, err := a.path.SelectIndexesCtx(ctx, doc)
	if err != nil {
		return nil, err
	}
	// Discard non-element/attribute indexes in place: SelectIndexes
	// returns a fresh slice, never a cached one.
	out := idx[:0]
	for _, i := range idx {
		if k := ar.Kind(i); k == dom.ElementNode || k == dom.AttributeNode {
			out = append(out, i)
		}
	}
	return out, nil
}

// Parse parses the compact textual 5-tuple form used throughout the
// paper, e.g.
//
//	<<Foreign,*,*>,laboratory.xml:/laboratory//paper[@category="private"],read,-,R>
//
// The object may contain commas (inside predicates); the action, sign
// and type are therefore taken from the right.
func Parse(s string) (*Authorization, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "<")
	t = strings.TrimSuffix(t, ">")
	// Subject: up to the matching '>' of the inner ⟨ug,ip,sn⟩.
	if !strings.HasPrefix(t, "<") {
		return nil, fmt.Errorf("authz: %q: expected subject triple '<ug,ip,sn>'", s)
	}
	end := strings.IndexByte(t, '>')
	if end < 0 {
		return nil, fmt.Errorf("authz: %q: unterminated subject triple", s)
	}
	sub, err := subjects.ParseSubject(t[:end+1])
	if err != nil {
		return nil, err
	}
	rest := strings.TrimPrefix(strings.TrimSpace(t[end+1:]), ",")
	// Split action, sign, type from the right.
	parts := rsplitN(rest, ',', 4)
	if len(parts) != 4 {
		return nil, fmt.Errorf("authz: %q: want object,action,sign,type after subject", s)
	}
	obj, err := ParseObject(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, err
	}
	sign, err := ParseSign(strings.TrimSpace(parts[2]))
	if err != nil {
		return nil, err
	}
	typ, err := ParseType(parts[3])
	if err != nil {
		return nil, err
	}
	return New(sub, obj, strings.TrimSpace(parts[1]), sign, typ)
}

// MustParse is Parse for known-good tuples.
func MustParse(s string) *Authorization {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// rsplitN splits s on sep into at most n fields, counting from the
// right: the first field absorbs any excess separators.
func rsplitN(s string, sep byte, n int) []string {
	var idx []int
	for i := len(s) - 1; i >= 0 && len(idx) < n-1; i-- {
		if s[i] == sep {
			idx = append(idx, i)
		}
	}
	if len(idx) < n-1 {
		return nil
	}
	out := make([]string, 0, n)
	prev := 0
	for i := len(idx) - 1; i >= 0; i-- {
		out = append(out, s[prev:idx[i]])
		prev = idx[i] + 1
	}
	out = append(out, s[prev:])
	return out
}
