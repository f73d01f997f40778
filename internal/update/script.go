// Package update implements the secure update language: scripts of
// XPath-targeted insert/delete/replace operations applied atomically
// to a shared immutable document under per-operation write
// authorization (the "write and update operations" the paper leaves as
// future work in Section 8, in the per-operation style of Mahfoud &
// Imine's secure-update extension).
//
// The package is deliberately split along the trust boundary:
//
//   - ParseScript/Validate judge the script alone (well-formedness of
//     operations, targets, and XML fragments) — no document involved;
//   - Resolve evaluates each operation's target node-set against a
//     document and a pair of caller-supplied predicates (read
//     visibility and write authority), producing either the resolved
//     target indexes or a per-operation error report;
//   - Apply executes a resolved script structurally against a fresh
//     copy of the document, with no authorization state at all, so the
//     same call replays deterministically from a write-ahead-log delta
//     record.
//
// See docs/UPDATES.md for the script grammar and the authorization
// semantics contract.
package update

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"unicode/utf8"

	"xmlsec/internal/dom"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

// Operation kinds. Each names its target with an XPath expression
// evaluated against the document being updated; targets are resolved
// once, against the pre-update state, and the operations then apply in
// script order (snapshot semantics).
const (
	// OpInsertInto appends the XML fragment as the last children of
	// each target element.
	OpInsertInto = "insert-into"
	// OpInsertBefore inserts the fragment immediately before each
	// target element, under the same parent.
	OpInsertBefore = "insert-before"
	// OpInsertAfter inserts the fragment immediately after each target
	// element, under the same parent.
	OpInsertAfter = "insert-after"
	// OpDelete removes each target element subtree or attribute.
	OpDelete = "delete"
	// OpReplaceNode replaces each target element subtree with the
	// fragment's single element.
	OpReplaceNode = "replace-node"
	// OpReplaceText replaces the direct character data of each target
	// element with the given text (empty text deletes it).
	OpReplaceText = "replace-text"
	// OpSetAttr sets an attribute on each target element, overwriting
	// a writable existing value or adding a new attribute.
	OpSetAttr = "set-attr"
)

// Op is one operation of an update script. Which argument fields are
// meaningful depends on Kind; Validate enforces the combinations.
type Op struct {
	// Kind is one of the Op* constants.
	Kind string `json:"op"`
	// Target is the XPath expression naming the operation's targets.
	Target string `json:"target"`
	// XML is the fragment argument of the insert and replace-node
	// operations: a sequence of well-formed elements (insert may also
	// carry text).
	XML string `json:"xml,omitempty"`
	// Text is the replacement character data of replace-text.
	Text string `json:"text,omitempty"`
	// Name and Value are the attribute argument of set-attr.
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`

	// path is the compiled target, frag the parsed fragment template;
	// both are filled by Validate and cloned per use.
	path *xpath.Path
	frag []*dom.Node
}

// Script is an ordered update script. The zero Script is empty and
// applies as a no-op; scripts obtained from ParseScript are validated.
type Script struct {
	Ops []Op `json:"ops"`
}

// ParseScript parses an update script in either of its two forms and
// validates it. A script whose first non-space byte is '{' is the JSON
// form:
//
//	{"ops": [
//	  {"op": "insert-into", "target": "/site/regions", "xml": "<africa/>"},
//	  {"op": "set-attr", "target": "//item", "name": "checked", "value": "1"},
//	  {"op": "delete", "target": "//mail"}
//	]}
//
// Anything else is the compact text form: one operation per line as
// "kind target argument", where the target must not contain spaces
// (use the JSON form for targets that do), blank lines and lines
// starting with '#' are skipped, and the argument is the XML fragment,
// the replacement text, or "name=value" for set-attr:
//
//	insert-into /site/regions <africa/>
//	set-attr //item checked=1
//	delete //mail
func ParseScript(src string) (*Script, error) {
	s, err := parseScript(src)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseScript(src string) (*Script, error) {
	trimmed := strings.TrimSpace(src)
	if trimmed == "" {
		return nil, fmt.Errorf("update: empty script")
	}
	if trimmed[0] == '{' {
		var s Script
		dec := json.NewDecoder(bytes.NewReader([]byte(trimmed)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("update: parsing script: %w", err)
		}
		return &s, nil
	}
	var s Script
	for ln, line := range strings.Split(trimmed, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("update: line %d: want \"kind target [argument]\"", ln+1)
		}
		op := Op{Kind: fields[0], Target: fields[1]}
		arg := ""
		if len(fields) == 3 {
			arg = strings.TrimSpace(fields[2])
		}
		switch op.Kind {
		case OpInsertInto, OpInsertBefore, OpInsertAfter, OpReplaceNode:
			op.XML = arg
		case OpReplaceText:
			op.Text = arg
		case OpSetAttr:
			name, value, ok := strings.Cut(arg, "=")
			if !ok {
				return nil, fmt.Errorf("update: line %d: set-attr wants \"name=value\"", ln+1)
			}
			op.Name, op.Value = name, value
		case OpDelete:
			if arg != "" {
				return nil, fmt.Errorf("update: line %d: delete takes no argument", ln+1)
			}
		default:
			return nil, fmt.Errorf("update: line %d: unknown operation %q", ln+1, op.Kind)
		}
		s.Ops = append(s.Ops, op)
	}
	return &s, nil
}

// Validate checks every operation's shape — known kind, compilable
// target, argument fields matching the kind, parsable XML fragments —
// and caches the compiled targets and fragment templates. It judges
// the script alone; whether the targets select anything, and whether
// the requester may touch them, is Resolve's business.
func (s *Script) Validate() error {
	if len(s.Ops) == 0 {
		return fmt.Errorf("update: script has no operations")
	}
	for i := range s.Ops {
		if err := s.Ops[i].validate(); err != nil {
			return fmt.Errorf("update: op %d (%s): %w", i, s.Ops[i].Kind, err)
		}
	}
	return nil
}

func (op *Op) validate() error {
	if op.Target == "" {
		return fmt.Errorf("missing target")
	}
	// Canonical() is JSON, which cannot carry invalid UTF-8: such a
	// script would journal something other than what it applied.
	for _, arg := range [...]string{op.Target, op.XML, op.Text, op.Name, op.Value} {
		if !utf8.ValidString(arg) {
			return fmt.Errorf("arguments must be valid UTF-8")
		}
	}
	p, err := xpath.Compile(op.Target)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	op.path = p
	switch op.Kind {
	case OpInsertInto, OpInsertBefore, OpInsertAfter:
		if op.Text != "" || op.Name != "" || op.Value != "" {
			return fmt.Errorf("only the xml argument applies")
		}
		frag, err := parseFragment(op.XML)
		if err != nil {
			return err
		}
		if len(frag) == 0 {
			return fmt.Errorf("empty fragment")
		}
		op.frag = frag
	case OpReplaceNode:
		if op.Text != "" || op.Name != "" || op.Value != "" {
			return fmt.Errorf("only the xml argument applies")
		}
		frag, err := parseFragment(op.XML)
		if err != nil {
			return err
		}
		if len(frag) != 1 || frag[0].Type != dom.ElementNode {
			return fmt.Errorf("replace-node wants exactly one element")
		}
		op.frag = frag
	case OpDelete:
		if op.XML != "" || op.Text != "" || op.Name != "" || op.Value != "" {
			return fmt.Errorf("delete takes no argument")
		}
	case OpReplaceText:
		if op.XML != "" || op.Name != "" || op.Value != "" {
			return fmt.Errorf("only the text argument applies")
		}
	case OpSetAttr:
		if op.XML != "" || op.Text != "" {
			return fmt.Errorf("only name and value apply")
		}
		if op.Name == "" {
			return fmt.Errorf("missing attribute name")
		}
	default:
		return fmt.Errorf("unknown operation")
	}
	return nil
}

// parseFragment parses an XML fragment — a sequence of elements,
// character data, and PIs — by wrapping it in a synthetic root.
// Whitespace-only text between elements is dropped, exactly as the
// site's document parse does.
func parseFragment(xml string) ([]*dom.Node, error) {
	if strings.TrimSpace(xml) == "" {
		return nil, fmt.Errorf("missing xml argument")
	}
	res, err := xmlparse.Parse("<fragment-wrapper>"+xml+"</fragment-wrapper>", xmlparse.Options{})
	if err != nil {
		return nil, fmt.Errorf("xml argument: %w", err)
	}
	root := res.Doc.DocumentElement()
	out := make([]*dom.Node, 0, len(root.Children))
	for _, c := range root.Children {
		out = append(out, c.Clone())
	}
	return out, nil
}

// Canonical returns the script's canonical JSON form — the bytes the
// write-ahead log journals, and what re-parses identically at replay.
func (s *Script) Canonical() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Script fields are plain strings; Marshal cannot fail.
		panic("update: canonicalizing script: " + err.Error())
	}
	return string(b)
}
