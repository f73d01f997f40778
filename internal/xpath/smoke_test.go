package xpath

import (
	"testing"

	"xmlsec/internal/xmlparse"
)

const smokeDoc = `<?xml version="1.0"?>
<laboratory>
  <project name="Access Models" type="internal">
    <manager>Alice</manager>
    <paper category="private"><title>P1</title></paper>
    <paper category="public"><title>P2</title></paper>
  </project>
  <project name="Web Search" type="public">
    <manager>Bob</manager>
    <paper category="public"><title>P3</title></paper>
  </project>
</laboratory>`

func TestSmoke(t *testing.T) {
	res, err := xmlparse.Parse(smokeDoc, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Doc.ReadTree()
	cases := []struct {
		expr string
		want int
	}{
		{"/laboratory", 1},
		{"/laboratory/project", 2},
		{"//paper", 3},
		{"//paper[./@category='public']", 2},
		{"/laboratory/project[@name='Access Models']/paper[./@category='private']", 1},
		{"//paper/@category", 3},
		{"/laboratory/project[1]", 1},
		{"/laboratory/project[last()]", 1},
		{"//manager[text()='Alice']", 1},
		{"//title/ancestor::project", 2},
		{"//paper[contains(@category,'riv')]", 1},
		{"/laboratory/project[@type='internal' or @type='public']", 2},
		{"count(//paper)", -1}, // non-node-set, checked below
		{"//project[count(paper)=2]", 1},
		{"//paper[position()=2]", 1},
		{"/laboratory//title", 3},
		{"//project/..", 1},
		{"//paper[not(@category='private')]", 2},
	}
	for _, c := range cases {
		p, err := Compile(c.expr)
		if err != nil {
			t.Fatalf("compile %q: %v", c.expr, err)
		}
		v, err := p.Eval(doc.Node)
		if err != nil {
			t.Fatalf("eval %q: %v", c.expr, err)
		}
		if c.want < 0 {
			if v.ToNumber() != 3 {
				t.Errorf("%q = %v, want 3", c.expr, v.ToNumber())
			}
			continue
		}
		if v.Kind != NodeSetValue {
			t.Fatalf("%q: not a node-set", c.expr)
		}
		if len(v.Nodes) != c.want {
			t.Errorf("%q selected %d nodes, want %d", c.expr, len(v.Nodes), c.want)
		}
	}
}
