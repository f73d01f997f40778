package authz

import (
	"strings"
	"testing"
)

const sampleXACL = `<?xml version="1.0"?>
<xacl about="CSlab.xml">
  <authorization>
    <subject ug="Foreign"/>
    <object path="/laboratory//paper[./@category='private']"/>
    <action>read</action>
    <sign>-</sign>
    <type>R</type>
  </authorization>
  <authorization>
    <subject ug="Public" ip="130.89.*" sn="*.it"/>
    <object uri="other.xml" path="//manager"/>
    <action>read</action>
    <sign>+</sign>
    <type>RW</type>
  </authorization>
</xacl>`

func TestParseXACL(t *testing.T) {
	x, err := ParseXACL(sampleXACL)
	if err != nil {
		t.Fatal(err)
	}
	if x.About != "CSlab.xml" || x.Level != InstanceLevel {
		t.Errorf("about/level = %q/%v", x.About, x.Level)
	}
	if len(x.Auths) != 2 {
		t.Fatalf("auths = %d", len(x.Auths))
	}
	a0 := x.Auths[0]
	if a0.Subject.UG != "Foreign" || a0.Subject.IP.String() != "*" || a0.Subject.SN.String() != "*" {
		t.Errorf("subject defaults wrong: %v", a0.Subject)
	}
	if a0.Object.URI != "CSlab.xml" {
		t.Errorf("object URI should default to about: %q", a0.Object.URI)
	}
	a1 := x.Auths[1]
	if a1.Object.URI != "other.xml" || a1.Subject.IP.String() != "130.89.*" {
		t.Errorf("explicit attributes wrong: %v", a1)
	}
	if a1.Type != RecursiveWeak {
		t.Errorf("type = %v", a1.Type)
	}
}

func TestParseXACLSchemaLevel(t *testing.T) {
	src := strings.Replace(sampleXACL, `about="CSlab.xml"`, `about="lab.dtd" level="schema"`, 1)
	src = strings.Replace(src, "<type>RW</type>", "<type>R</type>", 1)
	x, err := ParseXACL(src)
	if err != nil {
		t.Fatal(err)
	}
	if x.Level != SchemaLevel {
		t.Errorf("level = %v", x.Level)
	}
}

func TestParseXACLRejectsWeakAtSchema(t *testing.T) {
	src := strings.Replace(sampleXACL, `about="CSlab.xml"`, `about="lab.dtd" level="schema"`, 1)
	if _, err := ParseXACL(src); err == nil {
		t.Error("weak authorization in schema XACL should be rejected")
	}
}

func TestParseXACLValidatesAgainstDTD(t *testing.T) {
	bad := []string{
		`<xacl><authorization/></xacl>`, // missing about + content
		`<xacl about="d"><authorization><subject ug="u"/><object/><action>read</action><sign>+</sign></authorization></xacl>`, // missing type
		`<xacl about="d" level="bogus"/>`, // bad enum
		`<xacl about="d"><bogus/></xacl>`,
	}
	for _, src := range bad {
		if _, err := ParseXACL(src); err == nil {
			t.Errorf("ParseXACL(%q) should fail", src)
		}
	}
}

func TestParseXACLBadContent(t *testing.T) {
	src := strings.Replace(sampleXACL, "<sign>-</sign>", "<sign>?</sign>", 1)
	if _, err := ParseXACL(src); err == nil {
		t.Error("bad sign value should fail")
	}
	src = strings.Replace(sampleXACL, `ip="130.89.*"`, `ip="130.*.89.1"`, 1)
	if _, err := ParseXACL(src); err == nil {
		t.Error("bad IP pattern should fail")
	}
	// The DTD's "*" default fills only an absent ip, never an empty one.
	src = strings.Replace(sampleXACL, `ip="130.89.*"`, `ip=""`, 1)
	if _, err := ParseXACL(src); err == nil {
		t.Error("explicit empty IP pattern should fail, not take the default")
	}
}

func TestXACLRoundTrip(t *testing.T) {
	x1, err := ParseXACL(sampleXACL)
	if err != nil {
		t.Fatal(err)
	}
	out := x1.String()
	x2, err := ParseXACL(out)
	if err != nil {
		t.Fatalf("re-parsing marshaled XACL: %v\n%s", err, out)
	}
	if len(x2.Auths) != len(x1.Auths) || x2.About != x1.About || x2.Level != x1.Level {
		t.Fatalf("round trip lost data:\n%s", out)
	}
	for i := range x1.Auths {
		if x1.Auths[i].String() != x2.Auths[i].String() {
			t.Errorf("auth %d: %s vs %s", i, x1.Auths[i], x2.Auths[i])
		}
	}
}

func TestXACLDocumentConformsToOwnDTD(t *testing.T) {
	x, err := ParseXACL(sampleXACL)
	if err != nil {
		t.Fatal(err)
	}
	// Marshal, then re-parse: ParseXACL itself validates against the
	// XACL DTD, so a second pass proves Marshal emits conforming XML.
	if _, err := ParseXACL(x.String()); err != nil {
		t.Errorf("marshaled XACL does not validate: %v", err)
	}
}

func TestXACLEscaping(t *testing.T) {
	x := &XACL{About: "d.xml", Auths: []*Authorization{
		MustParse(`<<Public,*,*>,d.xml://x[@k="a<b"],read,+,L>`),
	}}
	out := x.String()
	if strings.Contains(out, `"a<b"`) {
		t.Errorf("unescaped '<' in attribute: %s", out)
	}
	x2, err := ParseXACL(out)
	if err != nil {
		t.Fatal(err)
	}
	if x2.Auths[0].Object.PathExpr != `//x[@k="a<b"]` {
		t.Errorf("escaped path round trip = %q", x2.Auths[0].Object.PathExpr)
	}
}

func TestLevelString(t *testing.T) {
	if InstanceLevel.String() != "instance" || SchemaLevel.String() != "schema" {
		t.Error("Level.String wrong")
	}
}
