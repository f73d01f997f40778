package authz

import (
	"fmt"
	"io"
	"strings"
	"time"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// XACL is an XML Access Control List: the set of authorizations
// associated with one document or DTD, itself represented as an XML
// document — the paper's "security markup" (Sections 1 and 7). A
// document's XACL lists its instance-level authorizations; a DTD's XACL
// lists schema-level ones.
type XACL struct {
	// About is the URI of the document or DTD the list protects.
	About string
	// Level is the level at which the authorizations apply.
	Level Level
	// Auths are the access authorizations.
	Auths []*Authorization
}

// DTDSource is the document type definition of XACL files. XACL
// documents produced by Marshal validate against it, and ParseXACL
// validates inputs against it before interpretation — the access
// control system protects itself with the machinery it implements.
const DTDSource = `<!ELEMENT xacl (authorization)*>
<!ATTLIST xacl
	about CDATA #REQUIRED
	level (instance|schema) "instance">
<!ELEMENT authorization (subject, object, action, sign, type)>
<!ATTLIST authorization
	valid-from CDATA #IMPLIED
	valid-until CDATA #IMPLIED>
<!ELEMENT subject EMPTY>
<!ATTLIST subject
	ug CDATA #REQUIRED
	ip CDATA "*"
	sn CDATA "*">
<!ELEMENT object EMPTY>
<!ATTLIST object
	uri CDATA #IMPLIED
	path CDATA #IMPLIED>
<!ELEMENT action (#PCDATA)>
<!ELEMENT sign (#PCDATA)>
<!ELEMENT type (#PCDATA)>
`

// xaclDTD is the compiled DTD, shared by Marshal and ParseXACL.
var xaclDTD = func() *dtd.DTD {
	d := dtd.MustParse(DTDSource)
	d.Name = "xacl"
	d.CompileAll()
	return d
}()

// ParseXACL parses and validates an XACL document.
func ParseXACL(input string) (*XACL, error) {
	res, err := xmlparse.Parse(input, xmlparse.Options{})
	if err != nil {
		return nil, err
	}
	if errs := xaclDTD.Validate(res.Doc, dtd.ValidateOptions{}); errs != nil {
		return nil, fmt.Errorf("authz: XACL does not conform to the XACL DTD: %w", errs)
	}
	root := res.Doc.DocumentElement()
	x := &XACL{}
	x.About, _ = root.Attr("about")
	if lv, _ := root.Attr("level"); lv == "schema" {
		x.Level = SchemaLevel
	}
	for _, ae := range root.ChildElements() {
		a, err := parseAuthElement(ae, x.About)
		if err != nil {
			return nil, err
		}
		if x.Level == SchemaLevel && a.Type.IsWeak() {
			return nil, fmt.Errorf("authz: XACL for %s: weak authorization %s not allowed at schema level", x.About, a)
		}
		x.Auths = append(x.Auths, a)
	}
	return x, nil
}

// xaclAttr returns n's attribute name or, when n has none, the default
// xaclDTD declares for it, as a validating parser would supply it.
func xaclAttr(n *dom.Node, name string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return xaclDTD.AttDef(n.Name, name).Value
}

func parseAuthElement(ae *dom.Node, defaultURI string) (*Authorization, error) {
	se := ae.FirstChildElement("subject")
	oe := ae.FirstChildElement("object")
	ug, _ := se.Attr("ug")
	ip := xaclAttr(se, "ip")
	sn := xaclAttr(se, "sn")
	sub, err := subjects.NewSubject(ug, ip, sn)
	if err != nil {
		return nil, err
	}
	obj := Object{}
	obj.URI, _ = oe.Attr("uri")
	obj.PathExpr, _ = oe.Attr("path")
	if obj.URI == "" {
		obj.URI = defaultURI
	}
	action := strings.TrimSpace(ae.FirstChildElement("action").Text())
	sign, err := ParseSign(strings.TrimSpace(ae.FirstChildElement("sign").Text()))
	if err != nil {
		return nil, err
	}
	typ, err := ParseType(ae.FirstChildElement("type").Text())
	if err != nil {
		return nil, err
	}
	a, err := New(sub, obj, action, sign, typ)
	if err != nil {
		return nil, err
	}
	if v, ok := ae.Attr("valid-from"); ok {
		if a.Validity.NotBefore, err = parseTimeAttr(v); err != nil {
			return nil, err
		}
	}
	if v, ok := ae.Attr("valid-until"); ok {
		if a.Validity.NotAfter, err = parseTimeAttr(v); err != nil {
			return nil, err
		}
	}
	if err := a.Validity.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Document renders the XACL as a DOM document conforming to DTDSource.
func (x *XACL) Document() *dom.Document {
	doc := dom.NewDocument()
	root := dom.NewElement("xacl")
	root.SetAttr("about", x.About)
	root.SetAttr("level", x.Level.String())
	for _, a := range x.Auths {
		ae := dom.NewElement("authorization")
		if !a.Validity.NotBefore.IsZero() {
			ae.SetAttr("valid-from", a.Validity.NotBefore.Format(time.RFC3339))
		}
		if !a.Validity.NotAfter.IsZero() {
			ae.SetAttr("valid-until", a.Validity.NotAfter.Format(time.RFC3339))
		}
		se := dom.NewElement("subject")
		se.SetAttr("ug", a.Subject.UG)
		se.SetAttr("ip", a.Subject.IP.String())
		se.SetAttr("sn", a.Subject.SN.String())
		ae.AppendChild(se)
		oe := dom.NewElement("object")
		if a.Object.URI != x.About {
			oe.SetAttr("uri", a.Object.URI)
		}
		if a.Object.PathExpr != "" {
			oe.SetAttr("path", a.Object.PathExpr)
		}
		ae.AppendChild(oe)
		for _, kv := range []struct{ tag, val string }{
			{"action", a.Action},
			{"sign", a.Sign.String()},
			{"type", a.Type.String()},
		} {
			e := dom.NewElement(kv.tag)
			e.AppendChild(dom.NewText(kv.val))
			ae.AppendChild(e)
		}
		root.AppendChild(ae)
	}
	doc.SetDocumentElement(root)
	doc.Renumber()
	return doc
}

// Marshal writes the XACL as a pretty-printed XML document.
func (x *XACL) Marshal(w io.Writer) error {
	return x.Document().Write(w, dom.WriteOptions{Indent: "  "})
}

// String returns the serialized XACL.
func (x *XACL) String() string {
	var b strings.Builder
	_ = x.Marshal(&b)
	return b.String()
}
