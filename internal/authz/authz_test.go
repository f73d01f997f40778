package authz

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

func TestParseTuple(t *testing.T) {
	a, err := Parse(`<<Foreign,*,*>,laboratory.xml:/laboratory//paper[./@category="private"],read,-,R>`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Subject.UG != "Foreign" {
		t.Errorf("subject = %v", a.Subject)
	}
	if a.Object.URI != "laboratory.xml" {
		t.Errorf("URI = %q", a.Object.URI)
	}
	if a.Object.PathExpr != `/laboratory//paper[./@category="private"]` {
		t.Errorf("PathExpr = %q", a.Object.PathExpr)
	}
	if a.Action != "read" || a.Sign != Deny || a.Type != Recursive {
		t.Errorf("tuple tail = %s %s %s", a.Action, a.Sign, a.Type)
	}
}

func TestParseTupleWithCommasInPredicate(t *testing.T) {
	a, err := Parse(`<<Public,*,*>,d.xml://x[contains(@k,'a,b')],read,+,LW>`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Object.PathExpr != `//x[contains(@k,'a,b')]` {
		t.Errorf("PathExpr = %q", a.Object.PathExpr)
	}
	if a.Type != LocalWeak {
		t.Errorf("type = %v", a.Type)
	}
}

func TestParseTupleLocationSubject(t *testing.T) {
	a, err := Parse(`<<Admin,130.89.56.8,*.lab.com>,CSlab.xml:project,read,+,R>`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Subject.IP.String() != "130.89.56.8" || a.Subject.SN.String() != "*.lab.com" {
		t.Errorf("location = %s / %s", a.Subject.IP, a.Subject.SN)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tuples := []string{
		`<<Foreign,*,*>,lab.xml:/laboratory//paper,read,-,R>`,
		`<<Public,*,*.it>,CSlab.xml://project/manager,read,+,RW>`,
		`<<u7,10.0.*,*>,d.xml,read,+,L>`,
	}
	for _, s := range tuples {
		a := MustParse(s)
		b, err := Parse(a.String())
		if err != nil {
			t.Fatalf("re-parsing %s: %v", a, err)
		}
		if b.String() != a.String() {
			t.Errorf("round trip: %s vs %s", a, b)
		}
	}
}

func TestParseTupleErrors(t *testing.T) {
	bad := []string{
		``,
		`no-subject,read,+,R`,
		`<<u,*,*>`,                         // missing everything
		`<<u,*,*>,d.xml,read,+>`,           // missing type
		`<<u,*,*>,d.xml,read,?,R>`,         // bad sign
		`<<u,*,*>,d.xml,read,+,X>`,         // bad type
		`<<u,*,*>,d.xml,,+,R>`,             // empty action
		`<<u,999.9.9.9,*>,d.xml,read,+,R>`, // bad IP
		`<<u,*,*>,d.xml:/a[,read,+,R>`,     // bad xpath
		`<<u,*,*>,:,read,+,R>`,             // empty URI
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseObject(t *testing.T) {
	cases := []struct {
		in      string
		uri, pe string
	}{
		{"doc.xml", "doc.xml", ""},
		{"doc.xml:/a/b", "doc.xml", "/a/b"},
		{"doc.xml://b", "doc.xml", "//b"},
		{"http://www.lab.com/CSlab.xml:/laboratory", "http://www.lab.com/CSlab.xml", "/laboratory"},
		{"http://host/doc.xml", "http://host/doc.xml", ""},
		{"doc.xml:project[./@t='x']", "doc.xml", "project[./@t='x']"},
	}
	for _, c := range cases {
		o, err := ParseObject(c.in)
		if err != nil {
			t.Errorf("ParseObject(%q): %v", c.in, err)
			continue
		}
		if o.URI != c.uri || o.PathExpr != c.pe {
			t.Errorf("ParseObject(%q) = %q / %q, want %q / %q", c.in, o.URI, o.PathExpr, c.uri, c.pe)
		}
	}
	if _, err := ParseObject(""); err == nil {
		t.Error("empty object should fail")
	}
}

func TestSignAndTypeParsing(t *testing.T) {
	if s, _ := ParseSign("+"); s != Permit {
		t.Error("ParseSign(+)")
	}
	if s, _ := ParseSign("-"); s != Deny {
		t.Error("ParseSign(-)")
	}
	if _, err := ParseSign("±"); err == nil {
		t.Error("bad sign accepted")
	}
	for in, want := range map[string]Type{"L": Local, "r": Recursive, "lw": LocalWeak, " RW ": RecursiveWeak} {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseType("RWX"); err == nil {
		t.Error("bad type accepted")
	}
	if Local.IsRecursive() || !RecursiveWeak.IsRecursive() {
		t.Error("IsRecursive wrong")
	}
	if Recursive.IsWeak() || !LocalWeak.IsWeak() {
		t.Error("IsWeak wrong")
	}
}

func TestSelectNodes(t *testing.T) {
	res, err := xmlparse.Parse(`<a><b k="1"/><b k="2"/><c/></a>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := MustParse(`<<Public,*,*>,d.xml:/a/b,read,+,R>`)
	nodes, err := a.SelectNodes(res.Doc)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("SelectNodes = %v, %v", nodes, err)
	}
	// No path expression: the document element.
	a = MustParse(`<<Public,*,*>,d.xml,read,+,R>`)
	nodes, err = a.SelectNodes(res.Doc)
	if err != nil || len(nodes) != 1 || nodes[0].Name != "a" {
		t.Fatalf("whole-document object = %v, %v", nodes, err)
	}
	// Attribute selection.
	a = MustParse(`<<Public,*,*>,d.xml://b/@k,read,+,L>`)
	nodes, err = a.SelectNodes(res.Doc)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("attribute object = %v, %v", nodes, err)
	}
	// Text nodes are filtered out of selections.
	res2, _ := xmlparse.Parse(`<a><b>txt</b></a>`, xmlparse.Options{})
	a = MustParse(`<<Public,*,*>,d.xml://b/text(),read,+,L>`)
	nodes, err = a.SelectNodes(res2.Doc)
	if err != nil || len(nodes) != 0 {
		t.Fatalf("text selection should be empty, got %v, %v", nodes, err)
	}
}

// TestRelativePathStartsAnywhere: the paper's relative path expressions
// reach the named elements wherever they occur (Section 4's
// fund/ancestor::project example).
func TestRelativePathStartsAnywhere(t *testing.T) {
	res, err := xmlparse.Parse(
		`<laboratory><project><fund>x</fund></project><project/></laboratory>`,
		xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := MustParse(`<<Public,*,*>,d.xml:fund/ancestor::project,read,+,R>`)
	nodes, err := a.SelectNodes(res.Doc)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("fund/ancestor::project = %v, %v", nodes, err)
	}
	a = MustParse(`<<Public,*,*>,d.xml:project,read,+,R>`)
	nodes, err = a.SelectNodes(res.Doc)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("relative project = %v, %v", nodes, err)
	}
}

func TestStoreLevels(t *testing.T) {
	s := NewStore()
	inst := MustParse(`<<Public,*,*>,doc.xml:/a,read,+,R>`)
	sch := MustParse(`<<Public,*,*>,doc.dtd:/a,read,-,L>`)
	if err := s.Add(InstanceLevel, inst); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(SchemaLevel, sch); err != nil {
		t.Fatal(err)
	}
	if got := s.ForDocument("doc.xml"); len(got) != 1 || got[0] != inst {
		t.Errorf("ForDocument = %v", got)
	}
	if got := s.ForSchema("doc.dtd"); len(got) != 1 || got[0] != sch {
		t.Errorf("ForSchema = %v", got)
	}
	if got := s.ForDocument("other.xml"); len(got) != 0 {
		t.Errorf("unrelated URI should be empty: %v", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if uris := s.URIs(InstanceLevel); len(uris) != 1 || uris[0] != "doc.xml" {
		t.Errorf("URIs = %v", uris)
	}
}

func TestStoreRejectsWeakAtSchemaLevel(t *testing.T) {
	s := NewStore()
	weak := MustParse(`<<Public,*,*>,doc.dtd:/a,read,+,RW>`)
	if err := s.Add(SchemaLevel, weak); err == nil {
		t.Error("weak authorization at schema level should be rejected")
	}
	if err := s.Add(InstanceLevel, weak); err != nil {
		t.Errorf("weak at instance level should be fine: %v", err)
	}
	if err := s.Add(InstanceLevel, nil); err == nil {
		t.Error("nil authorization should be rejected")
	}
}

// TestStoreResultsAreAppendSafe pins the sharing contract of
// ForDocument and ForSchema: they return the store's slice without
// copying it, so a lookup allocates nothing, yet appending to a result
// (as the engine's warm-up does) never writes into the store, and a
// later Add never changes a result already handed out.
func TestStoreResultsAreAppendSafe(t *testing.T) {
	s := NewStore()
	for _, tuple := range []string{
		`<<Public,*,*>,d.xml:/a,read,+,R>`,
		`<<Public,*,*>,d.xml:/b,read,+,R>`,
		`<<Public,*,*>,d.xml:/c,read,+,R>`, // leaves spare capacity behind the store's slice
		`<<Public,*,*>,d.dtd:/a,read,+,R>`,
	} {
		level := InstanceLevel
		if strings.Contains(tuple, "d.dtd") {
			level = SchemaLevel
		}
		if err := s.Add(level, MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ForDocument("d.xml")
	extra := MustParse(`<<Public,*,*>,d.xml:/x,read,-,R>`)
	grown := append(got, extra)
	if err := s.Add(InstanceLevel, MustParse(`<<Public,*,*>,d.xml:/y,read,+,R>`)); err != nil {
		t.Fatal(err)
	}
	if now := s.ForDocument("d.xml"); len(now) != 4 || now[3] == extra {
		t.Errorf("appending to a ForDocument result wrote into the store: %v", now)
	}
	if len(got) != 3 || grown[3] != extra {
		t.Errorf("a later Add changed a result already returned: %v / %v", got, grown)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = s.ForDocument("d.xml")
		_ = s.ForSchema("d.dtd")
	}); n != 0 {
		t.Errorf("lookups allocate %.0f times, want 0", n)
	}
}

// TestStoreResultsAreAppendSafeConcurrently is the concurrent twin of
// TestStoreResultsAreAppendSafe, for the race detector: readers append
// to the slices ForDocument and ForSchema return — as the engine does
// when it joins a document's authorizations with its DTD's — while Add
// grows the same lists. No append may write into the store, and every
// result a reader holds stays a prefix of the order of the Adds.
func TestStoreResultsAreAppendSafeConcurrently(t *testing.T) {
	const adds = 200
	inst := make([]*Authorization, adds)
	schema := make([]*Authorization, adds)
	for i := range inst {
		inst[i] = MustParse(fmt.Sprintf(`<<Public,*,*>,d.xml:/a%d,read,+,R>`, i))
		schema[i] = MustParse(fmt.Sprintf(`<<Public,*,*>,d.dtd:/a%d,read,+,R>`, i))
	}
	s := NewStore()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			extra := MustParse(`<<Public,*,*>,d.xml:/x,read,-,R>`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				doc := s.ForDocument("d.xml")
				joined := append(append(doc, s.ForSchema("d.dtd")...), extra)
				for i, a := range doc {
					if a != inst[i] || joined[i] != inst[i] {
						t.Errorf("result element %d is not the %dth Add", i, i)
						return
					}
				}
			}
		}()
	}
	for i := range inst {
		if err := s.Add(InstanceLevel, inst[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(SchemaLevel, schema[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.ForDocument("d.xml"); len(got) != adds || got[adds-1] != inst[adds-1] {
		t.Errorf("store holds %d instance authorizations after %d Adds", len(got), adds)
	}
}

func TestNewValidation(t *testing.T) {
	sub := subjects.MustNewSubject("u", "*", "*")
	if _, err := New(sub, Object{URI: "d.xml"}, "", Permit, Local); err == nil {
		t.Error("empty action should fail")
	}
	if _, err := New(sub, Object{}, ReadAction, Permit, Local); err == nil {
		t.Error("empty URI should fail")
	}
	if _, err := New(sub, Object{URI: "d.xml"}, ReadAction, Sign('x'), Local); err == nil {
		t.Error("bad sign should fail")
	}
	if _, err := New(sub, Object{URI: "d.xml", PathExpr: "///"}, ReadAction, Permit, Local); err == nil {
		t.Error("bad path should fail")
	}
}

func TestAuthorizationString(t *testing.T) {
	a := MustParse(`<<Foreign,*,*>,lab.xml:/x,read,-,R>`)
	s := a.String()
	for _, frag := range []string{"<Foreign,*,*>", "lab.xml:/x", "read", "-", "R"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() %q missing %q", s, frag)
		}
	}
}

// TestTupleRoundTripProperty: generated authorizations survive
// String→Parse for a grid of subjects, objects, signs and types.
func TestTupleRoundTripProperty(t *testing.T) {
	subjectsGrid := []string{"<Public,*,*>", "<G1,130.89.*,*>", "<u7,*,*.lab.com>", "<Admin,10.0.0.1,h.x.it>"}
	objects := []string{
		"d.xml",
		"d.xml:/a/b",
		`d.xml://x[@k="v"]`,
		`d.xml:/a/b[contains(@n,'x,y')]/@attr`,
		"http://host/p/d.xml:/a",
	}
	signs := []Sign{Permit, Deny}
	types := []Type{Local, Recursive, LocalWeak, RecursiveWeak}
	n := 0
	for _, s := range subjectsGrid {
		for _, o := range objects {
			for _, sg := range signs {
				for _, ty := range types {
					tuple := "<" + s + "," + o + ",read," + sg.String() + "," + ty.String() + ">"
					a, err := Parse(tuple)
					if err != nil {
						t.Fatalf("Parse(%q): %v", tuple, err)
					}
					b, err := Parse(a.String())
					if err != nil {
						t.Fatalf("re-Parse(%q): %v", a.String(), err)
					}
					if a.String() != b.String() {
						t.Fatalf("round trip: %s vs %s", a, b)
					}
					n++
				}
			}
		}
	}
	if n != len(subjectsGrid)*len(objects)*len(signs)*len(types) {
		t.Fatalf("grid incomplete: %d", n)
	}
}
