package xmlparse_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// checkArenaStructure walks the pointer tree and asserts the arena is
// a faithful flattening: same kinds, names, character data, parent
// links and attribute ranges at the tree's Renumber indices.
func checkArenaStructure(t *testing.T, doc *dom.Document, ar *dom.Arena) {
	t.Helper()
	count := 0
	var walk func(n *dom.Node, parent int32)
	walk = func(n *dom.Node, parent int32) {
		i := int32(n.Order)
		count++
		if ar.Kind(i) != n.Type {
			t.Fatalf("node %d: arena kind %v, tree type %v", i, ar.Kind(i), n.Type)
		}
		if ar.Name(i) != n.Name {
			t.Fatalf("node %d: arena name %q, tree name %q", i, ar.Name(i), n.Name)
		}
		if string(ar.RawData(i)) != n.Data {
			t.Fatalf("node %d: arena data %q, tree data %q", i, ar.RawData(i), n.Data)
		}
		if ar.Parent(i) != parent {
			t.Fatalf("node %d: arena parent %d, tree parent %d", i, ar.Parent(i), parent)
		}
		if n.Type == dom.AttributeNode && ar.Defaulted(i) != n.Defaulted {
			t.Fatalf("attr %d: arena defaulted %v, tree %v", i, ar.Defaulted(i), n.Defaulted)
		}
		start, end := ar.Attrs(i)
		if int(end-start) != len(n.Attrs) {
			t.Fatalf("node %d: arena attr range [%d,%d), tree has %d attrs", i, start, end, len(n.Attrs))
		}
		for k, at := range n.Attrs {
			if int32(at.Order) != start+int32(k) {
				t.Fatalf("attr %d of node %d: order %d, arena slot %d", k, i, at.Order, start+int32(k))
			}
			walk(at, i)
		}
		for _, c := range n.Children {
			walk(c, i)
		}
	}
	walk(doc.Node, -1)
	if count != ar.Len() {
		t.Fatalf("tree has %d nodes, arena %d", count, ar.Len())
	}
}

// fuzzPolicy derives a small deterministic authorization set and
// policy from the document's names and the fuzzed seed: grants and
// denials of every type, for the requester or for Public, at instance
// level or (non-weak) at schema level; on element paths, attribute
// targets, positional predicates and whole-document paths; under the
// open or the closed policy and any conflict rule. So the labeling
// meets named and unnamed subtrees, attributes that inherit from named
// elements, and views with fully visible subtrees to copy. Names the
// tuple grammar rejects are skipped — the interesting part is what the
// engine does with whatever parses.
func fuzzPolicy(doc *dom.Document, seed uint16) (inst, schema []*authz.Authorization, pol core.Policy) {
	var elems, attrs []string
	seen := map[string]bool{}
	var collect func(n *dom.Node)
	collect = func(n *dom.Node) {
		if n.Type == dom.ElementNode && !seen[n.Name] {
			seen[n.Name] = true
			elems = append(elems, n.Name)
		}
		for _, a := range n.Attrs {
			if !seen["@"+a.Name] {
				seen["@"+a.Name] = true
				attrs = append(attrs, a.Name)
			}
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(doc.ReadTree().Node)
	rng := rand.New(rand.NewSource(int64(seed)))
	pol = core.Policy{Conflict: core.ConflictRule(rng.Intn(4)), Open: rng.Intn(2) == 0}
	if len(elems) == 0 {
		return nil, nil, pol
	}
	pick := func(names []string) string {
		if len(names) == 0 {
			return "none"
		}
		return names[rng.Intn(len(names))]
	}
	types := []string{"L", "R", "LW", "RW"}
	for k := 1 + rng.Intn(5); k > 0; k-- {
		var path string
		switch rng.Intn(8) {
		case 0:
			path = "//" + pick(elems)
		case 1:
			path = fmt.Sprintf("(//%s)[%d]", pick(elems), 1+rng.Intn(3))
		case 2:
			path = fmt.Sprintf("//%s/@%s", pick(elems), pick(attrs))
		case 3:
			path = "//@" + pick(attrs)
		case 4:
			path = fmt.Sprintf("//%s[@%s]", pick(elems), pick(attrs))
		case 5:
			path = "/*"
		case 6:
			path = fmt.Sprintf("//%s/*", pick(elems))
		default:
			path = fmt.Sprintf("//*[%d]", 1+rng.Intn(3))
		}
		sub := "Public"
		if rng.Intn(2) == 0 {
			sub = "u"
		}
		sign := "+"
		if rng.Intn(2) == 0 {
			sign = "-"
		}
		typ := types[rng.Intn(4)]
		atSchema := rng.Intn(4) == 0
		uri := "doc.xml"
		if atSchema {
			uri, typ = "doc.dtd", typ[:1]
		}
		a, err := authz.Parse(fmt.Sprintf("<<%s,*,*>,%s:%s,read,%s,%s>", sub, uri, path, sign, typ))
		if err != nil {
			continue
		}
		if atSchema {
			schema = append(schema, a)
		} else {
			inst = append(inst, a)
		}
	}
	return inst, schema, pol
}

// TestArenaDTDDefaultedAttr parses a document whose DTD supplies an
// attribute default and checks the Defaulted bit reaches the arena:
// update merging and serialization policy both depend on telling
// supplied attributes from authored ones.
func TestArenaDTDDefaultedAttr(t *testing.T) {
	src := `<!DOCTYPE a [<!ELEMENT a (b)><!ELEMENT b EMPTY>` +
		`<!ATTLIST b kind CDATA "plain" id CDATA #IMPLIED>]><a><b id="7"/></a>`
	res, err := xmlparse.Parse(src, xmlparse.Options{ApplyDefaults: true})
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Doc.ReadArena()
	var b int32 = -1
	for i := int32(0); i < int32(ar.Len()); i++ {
		if ar.Kind(i) == dom.ElementNode && ar.Name(i) == "b" {
			b = i
		}
	}
	if b < 0 {
		t.Fatal("element b not in arena")
	}
	start, end := ar.Attrs(b)
	found := false
	for at := start; at < end; at++ {
		switch ar.Name(at) {
		case "kind":
			found = true
			if !ar.Defaulted(at) {
				t.Error("DTD-supplied attribute not marked defaulted in arena")
			}
			if got := string(ar.RawData(at)); got != "plain" {
				t.Errorf("defaulted value %q, want plain", got)
			}
		case "id":
			if ar.Defaulted(at) {
				t.Error("authored attribute marked defaulted in arena")
			}
		}
	}
	if !found {
		t.Fatal("defaulted attribute missing from arena")
	}
	checkArenaStructure(t, res.Doc.ReadTree(), ar)
}

// FuzzArenaParity is the arena/tree differential: for any input the
// parser accepts, the struct-of-arrays arena must mirror the pointer
// tree node for node, the Materialize adapter must serialize to the
// same bytes as the original tree, and the full label→mask→unparse
// cycle over the arena must be byte-identical to the reference pipeline
// (NaiveLabel, PruneDoc and the pointer-tree writer over a clone, which
// never sees an arena) under a seed-derived policy.
func FuzzArenaParity(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1"><b>t</b><!--c--><?p d?><![CDATA[e]]></a>`,
		`<r><a p="1"><b>t1</b><c q="2">t2<d/></c></a><e>t3</e></r>`,
		`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a x CDATA "dflt">]><a><a x="set"/></a>`,
		`<a>x]]&gt;y&amp;&lt;</a>`,
		strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40),
		// Escaped forms that differ from the raw data (the arena's
		// sparse escape table) next to verbatim comments and PIs, in
		// subtrees the policy may show whole or in part.
		`<r><a x="&amp;&lt;&quot;'&#9;&#10;">t &amp; &lt; "q" &gt;<b y="1&amp;2">&amp;</b></a><c>plain<d z="p"/></c></r>`,
		`<r><![CDATA[a]]]]><![CDATA[>b & <c>]]><!-- & < " --><?p & < "?><e><![CDATA[]]></e></r>`,
		`<!--pro & log--><?top x & y?><r a="&quot;&quot;">"&amp;"<s><t u="&lt;">&lt;&gt;</t></s></r>`,
	}
	for i, s := range seeds {
		f.Add(s, uint16(i*37))
	}
	f.Fuzz(func(t *testing.T, input string, polSeed uint16) {
		res, err := xmlparse.Parse(input, xmlparse.Options{
			KeepWhitespace: true, KeepComments: true, ApplyDefaults: true,
		})
		if err != nil {
			return // rejection is fine; panics are not
		}
		ar := res.Doc.ReadArena()
		if ar == nil || res.Doc.Node != nil {
			t.Fatal("parser returned no arena, or a tree")
		}
		checkArenaStructure(t, res.Doc.ReadTree(), ar)

		// The adapter direction: materializing the arena back into a
		// pointer tree must reproduce the document exactly.
		if got, want := ar.Materialize().String(), res.Doc.String(); got != want {
			t.Fatalf("Materialize round-trip diverged:\narena: %q\ntree:  %q", got, want)
		}

		// Full-cycle differential under a derived policy: the mask
		// pipeline labels, masks and serializes over the arena; the
		// reference pipeline labels a copy from first principles
		// (NaiveLabel), prunes it (PruneDoc) and writes it with the
		// pointer-tree writer (clones carry no arena).
		dir := subjects.NewDirectory()
		if err := dir.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		store := authz.NewStore()
		inst, schema, pol := fuzzPolicy(res.Doc, polSeed)
		if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
			t.Fatal(err)
		}
		if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(dir, store)
		eng.SetPolicy("doc.xml", pol)
		req := core.Request{
			Requester: subjects.Requester{User: "u", IP: "9.9.9.9", Host: "h.test.org"},
			URI:       "doc.xml",
			DTDURI:    "doc.dtd",
		}
		mv, err := eng.ComputeView(req, res.Doc)
		if err != nil {
			t.Fatalf("mask pipeline: %v", err)
		}
		ref := res.Doc.Clone()
		lb, err := eng.NaiveLabel(req, ref, true)
		if err != nil {
			t.Fatalf("reference labeling: %v", err)
		}
		want := core.Stats{Nodes: ref.CountNodes()}
		want.Plus, want.Minus, want.Eps = lb.Count()
		visible := core.PruneDoc(ref, lb, eng.PolicyFor(req.URI))
		want.Kept = ref.CountNodes()
		if mv.Empty() == visible {
			t.Fatalf("emptiness disagrees: mask %v, reference %v", mv.Empty(), !visible)
		}
		got := mv.Stats
		got.AuthsInstance, got.AuthsSchema = 0, 0
		if got != want {
			t.Fatalf("stats disagree: mask %+v, reference %+v", got, want)
		}
		for _, opts := range []dom.WriteOptions{{}, {Indent: "  "}} {
			var a, b strings.Builder
			if err := mv.WriteXML(&a, opts); err != nil {
				t.Fatalf("arena serialization: %v", err)
			}
			if err := ref.Write(&b, opts); err != nil {
				t.Fatalf("reference serialization: %v", err)
			}
			if a.String() != b.String() {
				t.Fatalf("masked serializations differ (opts %+v):\n--- arena ---\n%s\n--- reference ---\n%s",
					opts, a.String(), b.String())
			}
		}
	})
}
