package dtd_test

import (
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

const validateDTD = `
<!ELEMENT root (item+, note?)>
<!ATTLIST root version CDATA #REQUIRED>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item
	id   ID      #REQUIRED
	ref  IDREF   #IMPLIED
	kind (a|b)   "a"
	fix  CDATA   #FIXED "1">
<!ELEMENT note EMPTY>
`

// validate parses doc (without DTD wiring) and validates it against
// validateDTD.
func validate(t *testing.T, doc string, opts dtd.ValidateOptions) (dtd.ValidationErrors, *xmlparse.Result) {
	t.Helper()
	res, err := xmlparse.Parse(doc, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := dtd.MustParse(validateDTD)
	d.Name = "root"
	return d.Validate(res.Doc, opts), res
}

func expectErr(t *testing.T, errs dtd.ValidationErrors, substr string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return
		}
	}
	t.Errorf("no validation error mentioning %q in %v", substr, errs)
}

func TestValidateOK(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><item id="i1">x</item><note/></root>`, dtd.ValidateOptions{})
	if errs != nil {
		t.Fatalf("valid document rejected: %v", errs)
	}
}

func TestValidateWrongRoot(t *testing.T) {
	errs, _ := validate(t, `<item id="i1">x</item>`, dtd.ValidateOptions{})
	expectErr(t, errs, "DOCTYPE declares")
}

func TestValidateContentModel(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><note/></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "not allowed by content model")

	errs, _ = validate(t, `<root version="1"></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "ends prematurely")
}

func TestValidateUndeclaredElement(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><item id="i1"><ghost/></item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "not allowed in mixed content")

	errs, _ = validate(t, `<root version="1"><bogus/></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "not allowed by content model")
}

func TestValidateEmptyElement(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><item id="i1">x</item><note>text</note></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "EMPTY")
}

func TestValidateRequiredAttribute(t *testing.T) {
	errs, _ := validate(t, `<root><item id="i1">x</item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, `required attribute "version"`)
}

func TestValidateUndeclaredAttribute(t *testing.T) {
	errs, _ := validate(t, `<root version="1" extra="x"><item id="i1">x</item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, `attribute "extra" is not declared`)
}

func TestValidateEnumAndFixed(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><item id="i1" kind="z">x</item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "not in enumeration")

	errs, _ = validate(t, `<root version="1"><item id="i1" fix="2">x</item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "#FIXED")
}

func TestValidateIDUniqueness(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><item id="dup">x</item><item id="dup">y</item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "already used")
}

func TestValidateIDREFResolution(t *testing.T) {
	errs, _ := validate(t, `<root version="1"><item id="i1" ref="missing">x</item></root>`, dtd.ValidateOptions{})
	expectErr(t, errs, "matches no ID")

	errs, _ = validate(t, `<root version="1"><item id="i1" ref="i2">x</item><item id="i2">y</item></root>`, dtd.ValidateOptions{})
	if errs != nil {
		t.Errorf("forward IDREF should resolve: %v", errs)
	}

	errs, _ = validate(t, `<root version="1"><item id="i1" ref="missing">x</item></root>`, dtd.ValidateOptions{IgnoreIDs: true})
	if errs != nil {
		t.Errorf("IgnoreIDs should skip IDREF checks: %v", errs)
	}
}

func TestValidationErrorsAggregate(t *testing.T) {
	errs, _ := validate(t, `<root><bogus/><item id="1 2">x</item></root>`, dtd.ValidateOptions{})
	if len(errs) < 2 {
		t.Fatalf("expected several errors, got %v", errs)
	}
	if !strings.Contains(errs.Error(), "validity errors") {
		t.Errorf("aggregate message wrong: %s", errs.Error())
	}
}

func TestValidateNoRoot(t *testing.T) {
	d := dtd.MustParse(validateDTD)
	res, err := xmlparse.Parse(`<root version="1"><item id="i1">x</item></root>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Doc.ReadTree()
	doc.Node.RemoveChild(doc.DocumentElement())
	errs := d.Validate(doc, dtd.ValidateOptions{})
	expectErr(t, errs, "no root element")
}

// TestValidateAllocBudget pins that validation allocates less than once
// per element on the benchmark document shape (depth 4, fanout 5, two
// attributes per element: 781 elements). Content models run on scratch
// the validator reuses, and attribute lookups scan the declarations.
func TestValidateAllocBudget(t *testing.T) {
	cfg := workload.DocConfig{Depth: 4, Fanout: 5, Attrs: 2, Seed: 1}
	doc := workload.GenDocument(cfg)
	d := workload.GenDTD(cfg)
	d.CompileAll()
	elements := 0
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			elements++
		}
		return true
	})
	allocs := testing.AllocsPerRun(10, func() {
		if errs := d.Validate(doc, dtd.ValidateOptions{}); errs != nil {
			t.Fatal(errs)
		}
	})
	if allocs >= float64(elements) {
		t.Errorf("Validate made %.0f allocations for %d elements, want fewer", allocs, elements)
	}
}
