package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// ContentKind classifies the content specification of an element
// declaration.
type ContentKind int

const (
	// EmptyContent is EMPTY: the element must have no content.
	EmptyContent ContentKind = iota
	// AnyContent is ANY: any declared elements and character data.
	AnyContent
	// MixedContent is (#PCDATA | a | b)*: character data interleaved
	// with the listed elements.
	MixedContent
	// ElementContent is a children content model (a particle tree).
	ElementContent
)

// String returns the DTD keyword or a description of the content kind.
func (k ContentKind) String() string {
	switch k {
	case EmptyContent:
		return "EMPTY"
	case AnyContent:
		return "ANY"
	case MixedContent:
		return "MIXED"
	case ElementContent:
		return "CHILDREN"
	default:
		return fmt.Sprintf("ContentKind(%d)", int(k))
	}
}

// Occurrence is a content-particle occurrence indicator.
type Occurrence byte

const (
	// Once is the absence of an indicator: exactly one occurrence.
	Once Occurrence = 0
	// Opt is '?': zero or one occurrence.
	Opt Occurrence = '?'
	// Star is '*': zero or more occurrences.
	Star Occurrence = '*'
	// Plus is '+': one or more occurrences.
	Plus Occurrence = '+'
)

// String returns the indicator character, or "" for Once.
func (o Occurrence) String() string {
	if o == Once {
		return ""
	}
	return string(byte(o))
}

// ParticleKind discriminates content-particle nodes.
type ParticleKind int

const (
	// NameParticle is a reference to a child element by name.
	NameParticle ParticleKind = iota
	// SeqParticle is a sequence (a, b, c).
	SeqParticle
	// ChoiceParticle is a choice (a | b | c).
	ChoiceParticle
)

// Particle is a node of a children content model: an element name, a
// sequence, or a choice, each with an occurrence indicator.
type Particle struct {
	Kind     ParticleKind
	Name     string      // for NameParticle
	Children []*Particle // for SeqParticle and ChoiceParticle
	Occ      Occurrence
}

// Clone returns a deep copy of the particle tree.
func (p *Particle) Clone() *Particle {
	c := &Particle{Kind: p.Kind, Name: p.Name, Occ: p.Occ}
	for _, ch := range p.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// String renders the particle in DTD syntax.
func (p *Particle) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Particle) write(b *strings.Builder) {
	switch p.Kind {
	case NameParticle:
		b.WriteString(p.Name)
	case SeqParticle, ChoiceParticle:
		sep := ","
		if p.Kind == ChoiceParticle {
			sep = "|"
		}
		b.WriteByte('(')
		for i, c := range p.Children {
			if i > 0 {
				b.WriteString(sep)
			}
			c.write(b)
		}
		b.WriteByte(')')
	}
	b.WriteString(p.Occ.String())
}

// ElementDecl is an <!ELEMENT> declaration.
type ElementDecl struct {
	Name  string
	Kind  ContentKind
	Mixed []string  // element names admitted in mixed content
	Model *Particle // children content model, for ElementContent
	auto  *automaton
}

// ContentString renders the content specification in DTD syntax.
func (e *ElementDecl) ContentString() string {
	switch e.Kind {
	case EmptyContent:
		return "EMPTY"
	case AnyContent:
		return "ANY"
	case MixedContent:
		if len(e.Mixed) == 0 {
			return "(#PCDATA)"
		}
		return "(#PCDATA|" + strings.Join(e.Mixed, "|") + ")*"
	case ElementContent:
		s := e.Model.String()
		if !strings.HasPrefix(s, "(") {
			// A bare name particle still needs surrounding parens in
			// declaration syntax: <!ELEMENT a (b)>.
			return "(" + s + ")"
		}
		return s
	}
	return ""
}

// AttType is the declared type of an attribute.
type AttType int

// Attribute types of XML 1.0 (tokenized, string, and enumerated types).
const (
	CDATAType AttType = iota
	IDType
	IDREFType
	IDREFSType
	EntityType
	EntitiesType
	NMTokenType
	NMTokensType
	EnumType     // (a|b|c)
	NotationType // NOTATION (a|b)
)

// String returns the DTD keyword for the type.
func (t AttType) String() string {
	switch t {
	case CDATAType:
		return "CDATA"
	case IDType:
		return "ID"
	case IDREFType:
		return "IDREF"
	case IDREFSType:
		return "IDREFS"
	case EntityType:
		return "ENTITY"
	case EntitiesType:
		return "ENTITIES"
	case NMTokenType:
		return "NMTOKEN"
	case NMTokensType:
		return "NMTOKENS"
	case EnumType:
		return "ENUMERATION"
	case NotationType:
		return "NOTATION"
	default:
		return fmt.Sprintf("AttType(%d)", int(t))
	}
}

// AttDefault is the default-declaration mode of an attribute.
type AttDefault int

// Attribute default kinds: #REQUIRED, #IMPLIED, #FIXED v, or "v".
const (
	RequiredDefault AttDefault = iota
	ImpliedDefault
	FixedDefault
	ValueDefault
)

// String returns the DTD keyword for the default mode.
func (d AttDefault) String() string {
	switch d {
	case RequiredDefault:
		return "#REQUIRED"
	case ImpliedDefault:
		return "#IMPLIED"
	case FixedDefault:
		return "#FIXED"
	case ValueDefault:
		return "DEFAULT"
	default:
		return fmt.Sprintf("AttDefault(%d)", int(d))
	}
}

// AttDef is one attribute definition from an <!ATTLIST> declaration.
type AttDef struct {
	Element string // owning element name
	Name    string
	Type    AttType
	Enum    []string // for EnumType and NotationType
	Default AttDefault
	Value   string // default or fixed value
}

// EntityKind distinguishes general from parameter entities.
type EntityKind int

// Entity kinds.
const (
	GeneralEntity EntityKind = iota
	ParameterEntity
)

// EntityDecl is an <!ENTITY> declaration. External and unparsed entities
// are recorded (SystemID/PublicID/NDataName) but their replacement text
// is not fetched; the paper restricts itself to the logical structure.
type EntityDecl struct {
	Name      string
	Kind      EntityKind
	Value     string // replacement text for internal entities
	PublicID  string
	SystemID  string
	NDataName string // notation name for unparsed entities
}

// IsInternal reports whether the entity has inline replacement text.
func (e *EntityDecl) IsInternal() bool { return e.SystemID == "" }

// NotationDecl is a <!NOTATION> declaration.
type NotationDecl struct {
	Name     string
	PublicID string
	SystemID string
}

// DTD is a parsed document type definition: the merge of the internal
// and external subsets (internal declarations take precedence for
// entities and attribute definitions, per XML 1.0).
type DTD struct {
	// Name is the document type name (the expected root element), if
	// the DTD was read from a DOCTYPE declaration; otherwise empty.
	Name string

	// Elements maps element names to their declarations.
	Elements map[string]*ElementDecl

	// Attlists maps element names to their attribute definitions in
	// declaration order.
	Attlists map[string][]*AttDef

	// Entities maps general entity names to declarations. The five
	// predefined entities (lt, gt, amp, apos, quot) are implicit and
	// never stored here.
	Entities map[string]*EntityDecl

	// PEntities maps parameter entity names to declarations.
	PEntities map[string]*EntityDecl

	// Notations maps notation names to declarations.
	Notations map[string]*NotationDecl

	// declOrder records declaration order for faithful serialization:
	// entries are tagged references into the maps above.
	declOrder []declRef

	// attDefs holds every (element, attribute) pair in Attlists, so
	// AddAttDef finds a redeclaration without scanning the list.
	attDefs map[attKey]bool
}

type attKey struct{ elem, attr string }

type declKind int

const (
	declElement declKind = iota
	declAttlist
	declEntity
	declPEntity
	declNotation
	declComment
	declPI
)

type declRef struct {
	kind declKind
	name string // map key; for declComment/declPI, the literal payload
	data string // PI data
}

// NewDTD returns an empty DTD.
func NewDTD() *DTD {
	return &DTD{
		Elements:  make(map[string]*ElementDecl),
		Attlists:  make(map[string][]*AttDef),
		Entities:  make(map[string]*EntityDecl),
		PEntities: make(map[string]*EntityDecl),
		Notations: make(map[string]*NotationDecl),
	}
}

// Element returns the declaration for the named element, or nil.
func (d *DTD) Element(name string) *ElementDecl {
	if d == nil {
		return nil
	}
	return d.Elements[name]
}

// AttDef returns the definition of attribute attr on element elem, or
// nil if not declared.
func (d *DTD) AttDef(elem, attr string) *AttDef {
	if d == nil {
		return nil
	}
	for _, a := range d.Attlists[elem] {
		if a.Name == attr {
			return a
		}
	}
	return nil
}

// AddElement records an element declaration. Per XML 1.0 an element may
// be declared at most once; redeclaration is an error.
func (d *DTD) AddElement(e *ElementDecl) error {
	if _, dup := d.Elements[e.Name]; dup {
		return fmt.Errorf("dtd: element %q declared twice", e.Name)
	}
	d.Elements[e.Name] = e
	d.declOrder = append(d.declOrder, declRef{kind: declElement, name: e.Name})
	return nil
}

// AddAttDef records an attribute definition. Per XML 1.0, if the same
// attribute is defined more than once for an element, the first
// definition is binding and later ones are ignored.
func (d *DTD) AddAttDef(a *AttDef) {
	k := attKey{a.Element, a.Name}
	if d.attDefs[k] {
		return
	}
	if d.attDefs == nil {
		d.attDefs = make(map[attKey]bool)
	}
	d.attDefs[k] = true
	if _, seen := d.Attlists[a.Element]; !seen {
		d.declOrder = append(d.declOrder, declRef{kind: declAttlist, name: a.Element})
	}
	d.Attlists[a.Element] = append(d.Attlists[a.Element], a)
}

// AddEntity records an entity declaration; the first declaration of a
// name is binding, as in XML 1.0.
func (d *DTD) AddEntity(e *EntityDecl) {
	switch e.Kind {
	case ParameterEntity:
		if _, seen := d.PEntities[e.Name]; seen {
			return
		}
		d.PEntities[e.Name] = e
		d.declOrder = append(d.declOrder, declRef{kind: declPEntity, name: e.Name})
	default:
		if _, seen := d.Entities[e.Name]; seen {
			return
		}
		d.Entities[e.Name] = e
		d.declOrder = append(d.declOrder, declRef{kind: declEntity, name: e.Name})
	}
}

// AddNotation records a notation declaration.
func (d *DTD) AddNotation(n *NotationDecl) error {
	if _, dup := d.Notations[n.Name]; dup {
		return fmt.Errorf("dtd: notation %q declared twice", n.Name)
	}
	d.Notations[n.Name] = n
	d.declOrder = append(d.declOrder, declRef{kind: declNotation, name: n.Name})
	return nil
}

// ElementNames returns the declared element names in declaration order.
func (d *DTD) ElementNames() []string {
	var names []string
	for _, r := range d.declOrder {
		if r.kind == declElement {
			names = append(names, r.name)
		}
	}
	// Include any elements added outside declOrder (programmatically),
	// sorted for determinism.
	if len(names) != len(d.Elements) {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			seen[n] = true
		}
		var extra []string
		for n := range d.Elements {
			if !seen[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		names = append(names, extra...)
	}
	return names
}
