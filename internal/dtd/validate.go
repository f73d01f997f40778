package dtd

import (
	"bytes"
	"fmt"
	"strings"

	"xmlsec/internal/dom"
)

// ValidationError is one violation of the DTD by a document.
type ValidationError struct {
	// Path is the diagnostic path of the offending node (element or
	// attribute), as Node.Path and Arena.Path give it, when known.
	Path string
	// Msg describes the violation.
	Msg string
}

func (e *ValidationError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("dtd: %s: %s", e.Path, e.Msg)
	}
	return "dtd: " + e.Msg
}

// ValidationErrors aggregates all violations found in one pass.
type ValidationErrors []*ValidationError

func (v ValidationErrors) Error() string {
	switch len(v) {
	case 0:
		return "dtd: no errors"
	case 1:
		return v[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dtd: %d validity errors:", len(v))
	for _, e := range v {
		b.WriteString("\n\t")
		b.WriteString(e.Error())
	}
	return b.String()
}

// ValidateOptions tunes validation behaviour.
type ValidateOptions struct {
	// IgnoreIDs skips ID uniqueness and IDREF resolution checks. The
	// paper's pruning can legitimately remove IDREF targets; the
	// security processor validates views with IgnoreIDs set.
	IgnoreIDs bool
}

// Validate checks doc against the DTD and returns all violations (nil if
// the document is valid). It reads the document's arena (ReadArena): a
// parsed document is one, and a tree built in memory is flattened
// first, so one validator serves every caller. doc is not changed.
// Attribute defaults are the parser's to apply.
func (d *DTD) Validate(doc *dom.Document, opts ValidateOptions) ValidationErrors {
	ar := doc.ReadArena()
	v := &validator{dtd: d, ar: ar, ids: make(map[string]int32)}
	root := ar.DocumentElement()
	if root < 0 {
		v.errs = append(v.errs, &ValidationError{Msg: "document has no root element"})
		return v.errs
	}
	if d.Name != "" && ar.Name(root) != d.Name {
		v.errf(root, "root element is %q, DOCTYPE declares %q", ar.Name(root), d.Name)
	}
	// Preorder is index order, so one sweep over the root's subtree
	// checks each element before its descendants, as a recursive walk
	// would.
	for i, end := root, ar.SubtreeEnd(root); i < end; i++ {
		if ar.Kind(i) != dom.ElementNode {
			continue
		}
		if decl := d.Element(ar.Name(i)); decl == nil {
			v.errf(i, "element %q is not declared", ar.Name(i))
		} else {
			v.content(i, decl)
		}
		v.attributes(i)
	}
	if !opts.IgnoreIDs {
		for _, ref := range v.idrefs {
			if _, ok := v.ids[ref.id]; !ok {
				v.errf(ref.node, "IDREF %q matches no ID in the document", ref.id)
			}
		}
	}
	if len(v.errs) == 0 {
		return nil
	}
	return v.errs
}

type idref struct {
	node int32
	id   string
}

type validator struct {
	dtd    *DTD
	ar     *dom.Arena
	errs   ValidationErrors
	ids    map[string]int32 // ID value → the attribute that declared it
	idrefs []idref
	// Scratch reused across elements: the child-name sequence of the
	// element being checked and the content-model match state.
	seq   []string
	match matchState
}

func (v *validator) errf(i int32, format string, args ...any) {
	v.errs = append(v.errs, &ValidationError{Path: v.ar.Path(i), Msg: fmt.Sprintf(format, args...)})
}

// hasText reports whether node i is text or CDATA that is not all
// whitespace.
func (v *validator) hasText(i int32) bool {
	k := v.ar.Kind(i)
	return (k == dom.TextNode || k == dom.CDATANode) && len(bytes.TrimSpace(v.ar.RawData(i))) > 0
}

func (v *validator) content(n int32, decl *ElementDecl) {
	ar := v.ar
	name := ar.Name(n)
	switch decl.Kind {
	case EmptyContent:
		for c := ar.FirstChild(n); c >= 0; c = ar.NextSibling(c) {
			// XML 1.0 is strict here: EMPTY admits no content at all,
			// even whitespace; we are lenient about whitespace
			// introduced by pretty-printing.
			if ar.Kind(c) == dom.ElementNode {
				v.errf(n, "element %q is declared EMPTY but contains element %q", name, ar.Name(c))
				return
			}
			if v.hasText(c) {
				v.errf(n, "element %q is declared EMPTY but contains character data", name)
				return
			}
		}
	case AnyContent:
		for c := ar.FirstChild(n); c >= 0; c = ar.NextSibling(c) {
			if ar.Kind(c) == dom.ElementNode && v.dtd.Element(ar.Name(c)) == nil {
				v.errf(c, "element %q (inside ANY) is not declared", ar.Name(c))
			}
		}
	case MixedContent:
		// Short name lists are scanned; a long one is indexed once.
		var allowed map[string]bool
		if len(decl.Mixed) > attrScanMax {
			allowed = make(map[string]bool, len(decl.Mixed))
			for _, m := range decl.Mixed {
				allowed[m] = true
			}
		}
		for c := ar.FirstChild(n); c >= 0; c = ar.NextSibling(c) {
			if ar.Kind(c) != dom.ElementNode {
				continue
			}
			if cn := ar.Name(c); allowed != nil && !allowed[cn] || allowed == nil && !contains(decl.Mixed, cn) {
				v.errf(c, "element %q not allowed in mixed content of %q", cn, name)
			}
		}
	case ElementContent:
		seq := v.seq[:0]
		for c := ar.FirstChild(n); c >= 0; c = ar.NextSibling(c) {
			if ar.Kind(c) == dom.ElementNode {
				seq = append(seq, ar.Name(c))
			} else if v.hasText(c) {
				v.errf(n, "character data not allowed in element content of %q", name)
			}
		}
		v.seq = seq
		if ok, at := decl.automatonFor().matches(seq, &v.match); !ok {
			if at >= len(seq) {
				v.errf(n, "content of %q ends prematurely: (%s) does not complete %s",
					name, strings.Join(seq, ","), decl.Model)
			} else {
				v.errf(n, "child %q at position %d not allowed by content model %s of %q",
					seq[at], at+1, decl.Model, name)
			}
		}
	}
}

// attrScanMax is the count of attributes on an element, or of
// declarations for its type, up to which lookups scan; past it they go
// through an index, so validation stays linear in the number of
// attributes.
const attrScanMax = 8

func (v *validator) attributes(n int32) {
	ar := v.ar
	name := ar.Name(n)
	lo, hi := ar.Attrs(n)
	for a := lo; a < hi; a++ {
		def := v.dtd.AttDef(name, ar.Name(a))
		if def == nil {
			v.errf(a, "attribute %q is not declared for element %q", ar.Name(a), name)
			continue
		}
		v.attrValue(a, def)
	}
	// Past attrScanMax attributes, the names present are indexed once,
	// at the first required declaration.
	var present map[dom.Sym]bool
	for _, def := range v.dtd.Attlists[name] {
		if def.Default != RequiredDefault {
			continue
		}
		if present == nil && hi-lo > attrScanMax {
			present = make(map[dom.Sym]bool, hi-lo)
			for a := lo; a < hi; a++ {
				present[ar.NameSym(a)] = true
			}
		}
		if s, ok := ar.LookupSym(def.Name); ok && (present[s] || present == nil && hasAttr(ar, lo, hi, s)) {
			continue
		}
		v.errf(n, "required attribute %q of element %q is missing", def.Name, name)
	}
}

// hasAttr reports whether one of the attributes [lo, hi) is named s.
func hasAttr(ar *dom.Arena, lo, hi int32, s dom.Sym) bool {
	for a := lo; a < hi; a++ {
		if ar.NameSym(a) == s {
			return true
		}
	}
	return false
}

func (v *validator) attrValue(a int32, def *AttDef) {
	if def.Type == CDATAType && def.Default != FixedDefault {
		return // any value
	}
	data := string(v.ar.RawData(a))
	val := data
	if def.Type != CDATAType {
		// Tokenized types get additional whitespace normalization.
		val = strings.Join(strings.Fields(val), " ")
	}
	switch def.Type {
	case IDType:
		if !IsName(val) {
			v.errf(a, "ID value %q is not a Name", val)
		} else if prev, ok := v.ids[val]; ok {
			v.errf(a, "ID %q already used at %s", val, v.ar.Path(prev))
		} else {
			v.ids[val] = a
		}
	case IDREFType:
		if !IsName(val) {
			v.errf(a, "IDREF value %q is not a Name", val)
		} else {
			v.idrefs = append(v.idrefs, idref{a, val})
		}
	case IDREFSType:
		for _, tok := range strings.Fields(val) {
			if !IsName(tok) {
				v.errf(a, "IDREFS token %q is not a Name", tok)
			} else {
				v.idrefs = append(v.idrefs, idref{a, tok})
			}
		}
	case NMTokenType:
		if !IsNmtoken(val) {
			v.errf(a, "NMTOKEN value %q is not a name token", val)
		}
	case NMTokensType:
		if len(strings.Fields(val)) == 0 {
			v.errf(a, "NMTOKENS value is empty")
		}
		for _, tok := range strings.Fields(val) {
			if !IsNmtoken(tok) {
				v.errf(a, "NMTOKENS token %q is not a name token", tok)
			}
		}
	case EntityType:
		v.entityName(a, val)
	case EntitiesType:
		for _, tok := range strings.Fields(val) {
			v.entityName(a, tok)
		}
	case EnumType:
		if !contains(def.Enum, val) {
			v.errf(a, "value %q not in enumeration (%s)", val, strings.Join(def.Enum, "|"))
		}
	case NotationType:
		if !contains(def.Enum, val) {
			v.errf(a, "value %q not in notation list (%s)", val, strings.Join(def.Enum, "|"))
		} else if v.dtd.Notations[val] == nil {
			v.errf(a, "notation %q is not declared", val)
		}
	}
	if def.Default == FixedDefault && data != def.Value {
		v.errf(a, "attribute %q is #FIXED %q but has value %q", def.Name, def.Value, data)
	}
}

func (v *validator) entityName(a int32, name string) {
	ent := v.dtd.Entities[name]
	switch {
	case ent == nil:
		v.errf(a, "entity %q is not declared", name)
	case ent.NDataName == "":
		v.errf(a, "entity %q is not an unparsed entity", name)
	case v.dtd.Notations[ent.NDataName] == nil:
		v.errf(a, "entity %q uses undeclared notation %q", name, ent.NDataName)
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
