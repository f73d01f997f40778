package dtd

import (
	"fmt"
	"strings"

	"xmlsec/internal/dom"
)

// RefValidate is the tree-walking validator that Validate replaced,
// kept as the reference FuzzValidateParity holds the arena validator
// to: it checks doc's pointer tree against d and reports the same
// errors, in the same order, with paths from Node.Path.
func RefValidate(d *DTD, doc *dom.Document, opts ValidateOptions) ValidationErrors {
	v := &refValidator{dtd: d, opts: opts, ids: make(map[string]*dom.Node)}
	root := doc.DocumentElement()
	if root == nil {
		v.errf(nil, "document has no root element")
		return v.errs
	}
	if d.Name != "" && root.Name != d.Name {
		v.errf(root, "root element is %q, DOCTYPE declares %q", root.Name, d.Name)
	}
	v.element(root)
	if !opts.IgnoreIDs {
		for _, ref := range v.idrefs {
			if v.ids[ref.id] == nil {
				v.errf(ref.node, "IDREF %q matches no ID in the document", ref.id)
			}
		}
	}
	if len(v.errs) == 0 {
		return nil
	}
	return v.errs
}

type refIDRef struct {
	node *dom.Node
	id   string
}

type refValidator struct {
	dtd    *DTD
	opts   ValidateOptions
	errs   ValidationErrors
	ids    map[string]*dom.Node
	idrefs []refIDRef
	// Scratch reused across elements: the child-name sequence of the
	// element being checked and the content-model match state.
	seq   []string
	match matchState
}

func (v *refValidator) errf(n *dom.Node, format string, args ...any) {
	e := &ValidationError{Msg: fmt.Sprintf(format, args...)}
	if n != nil {
		e.Path = n.Path()
	}
	v.errs = append(v.errs, e)
}

func (v *refValidator) element(n *dom.Node) {
	decl := v.dtd.Element(n.Name)
	if decl == nil {
		v.errf(n, "element %q is not declared", n.Name)
	} else {
		v.content(n, decl)
	}
	v.attributes(n)
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			v.element(c)
		}
	}
}

func (v *refValidator) content(n *dom.Node, decl *ElementDecl) {
	switch decl.Kind {
	case EmptyContent:
		for _, c := range n.Children {
			switch c.Type {
			case dom.ElementNode:
				v.errf(n, "element %q is declared EMPTY but contains element %q", n.Name, c.Name)
				return
			case dom.TextNode, dom.CDATANode:
				if strings.TrimSpace(c.Data) != "" {
					v.errf(n, "element %q is declared EMPTY but contains character data", n.Name)
					return
				}
				// XML 1.0 is strict here: EMPTY admits no content at
				// all, even whitespace; we are lenient about
				// whitespace introduced by pretty-printing.
			}
		}
	case AnyContent:
		for _, c := range n.Children {
			if c.Type == dom.ElementNode && v.dtd.Element(c.Name) == nil {
				v.errf(c, "element %q (inside ANY) is not declared", c.Name)
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
		for _, c := range n.Children {
			if c.Type != dom.ElementNode {
				continue
			}
			if allowed != nil && !allowed[c.Name] || allowed == nil && !contains(decl.Mixed, c.Name) {
				v.errf(c, "element %q not allowed in mixed content of %q", c.Name, n.Name)
			}
		}
	case ElementContent:
		seq := v.seq[:0]
		for _, c := range n.Children {
			switch c.Type {
			case dom.ElementNode:
				seq = append(seq, c.Name)
			case dom.TextNode, dom.CDATANode:
				if strings.TrimSpace(c.Data) != "" {
					v.errf(n, "character data not allowed in element content of %q", n.Name)
				}
			}
		}
		v.seq = seq
		if ok, at := decl.automatonFor().matches(seq, &v.match); !ok {
			if at >= len(seq) {
				v.errf(n, "content of %q ends prematurely: (%s) does not complete %s",
					n.Name, strings.Join(seq, ","), decl.Model)
			} else {
				v.errf(n, "child %q at position %d not allowed by content model %s of %q",
					seq[at], at+1, decl.Model, n.Name)
			}
		}
	}
}

func (v *refValidator) attributes(n *dom.Node) {
	defs := v.dtd.Attlists[n.Name]
	var declared map[string]*AttDef
	var present map[string]bool
	if len(defs) > attrScanMax || len(n.Attrs) > attrScanMax {
		declared = make(map[string]*AttDef, len(defs))
		for _, def := range defs {
			declared[def.Name] = def
		}
		present = make(map[string]bool, len(n.Attrs))
		for _, a := range n.Attrs {
			present[a.Name] = true
		}
	}
	for _, a := range n.Attrs {
		var def *AttDef
		if declared != nil {
			def = declared[a.Name]
		} else {
			def = v.dtd.AttDef(n.Name, a.Name)
		}
		if def == nil {
			v.errf(a, "attribute %q is not declared for element %q", a.Name, n.Name)
			continue
		}
		v.attrValue(a, def)
	}
	for _, def := range defs {
		if present[def.Name] || present == nil && n.AttrNode(def.Name) != nil {
			continue
		}
		if def.Default == RequiredDefault {
			v.errf(n, "required attribute %q of element %q is missing", def.Name, n.Name)
		}
	}
}

func (v *refValidator) attrValue(a *dom.Node, def *AttDef) {
	val := a.Data
	if def.Type != CDATAType {
		// Tokenized types get additional whitespace normalization.
		val = strings.Join(strings.Fields(val), " ")
	}
	switch def.Type {
	case CDATAType:
		// any value
	case IDType:
		if !IsName(val) {
			v.errf(a, "ID value %q is not a Name", val)
		} else if prev := v.ids[val]; prev != nil {
			v.errf(a, "ID %q already used at %s", val, prev.Path())
		} else {
			v.ids[val] = a
		}
	case IDREFType:
		if !IsName(val) {
			v.errf(a, "IDREF value %q is not a Name", val)
		} else {
			v.idrefs = append(v.idrefs, refIDRef{a, val})
		}
	case IDREFSType:
		for _, tok := range strings.Fields(val) {
			if !IsName(tok) {
				v.errf(a, "IDREFS token %q is not a Name", tok)
			} else {
				v.idrefs = append(v.idrefs, refIDRef{a, tok})
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
	if def.Default == FixedDefault && a.Data != def.Value {
		v.errf(a, "attribute %q is #FIXED %q but has value %q", def.Name, def.Value, a.Data)
	}
}

func (v *refValidator) entityName(a *dom.Node, name string) {
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
