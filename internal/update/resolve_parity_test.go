package update

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// parityDocs are the documents FuzzResolveParity resolves over: a
// generated one in the benchmark's shape, and one carrying every node
// kind (prolog comment and PI, mixed content, CDATA) so targets of every
// kind reach the checks.
func parityDocs(t testing.TB) []*dom.Document {
	gen := workload.GenDocument(workload.DocConfig{Depth: 3, Fanout: 3, Labels: 2, Attrs: 2, Seed: 5})
	res, err := xmlparse.Parse(gen.String(), xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := xmlparse.Parse(`<?pi lead?><!--c--><site a="1"><regions code="9">text<asia code="91"><item id="i1">lamp<![CDATA[<raw>]]></item><!--note--></asia><?pi x?><europe code="44"/></regions><name>old</name></site>`,
		xmlparse.Options{KeepComments: true})
	if err != nil {
		t.Fatal(err)
	}
	return []*dom.Document{res.Doc, mixed.Doc}
}

// widenTargets are XPath targets beyond RandomScript's unique element
// paths: node-sets of several nodes and every kind — the document node,
// the document element, attributes, text, comments, PIs — so each
// conflict and refusal reason is exercised.
var widenTargets = []string{"/", "/*", "//*", "//@*", "//text()", "//comment()",
	"//processing-instruction()", "//*[@code]", "//*/@code", "//item/..", "//nowhere"}

// paritySetup draws the resolver inputs from one seed: a script (a
// RandomScript with some targets widened), an upward-closed read mask
// and a writable set.
func paritySetup(doc *dom.Document, seed int64, nops int, showPct, writePct int) (*Script, func(int32) bool, func(int32) bool) {
	rng := rand.New(rand.NewSource(seed))
	s := RandomScript(rng, doc, nops)
	if s == nil {
		return nil, nil, nil
	}
	for i := range s.Ops {
		if rng.Intn(3) == 0 {
			s.Ops[i].Target = widenTargets[rng.Intn(len(widenTargets))]
		}
	}
	if err := s.Validate(); err != nil {
		return nil, nil, nil
	}
	ar := doc.ReadArena()
	mask := dom.NewBitmask(ar.Len())
	mask.Set(0)
	writable := dom.NewBitmask(ar.Len())
	for i := int32(1); i < int32(ar.Len()); i++ {
		if mask.Get(int(ar.Parent(i))) && rng.Intn(100) < showPct {
			mask.Set(int(i))
		}
		if rng.Intn(100) < writePct {
			writable.Set(int(i))
		}
	}
	return s, func(i int32) bool { return mask.Get(int(i)) }, func(i int32) bool { return writable.Get(int(i)) }
}

// FuzzResolveParity holds the arena-native Resolve to the pointer-tree
// resolver it replaced (refResolve): for random scripts, upward-closed
// read masks and writable sets, both must agree on the targets, the
// checks counted and every per-operation report, reason text included —
// on the parsed, arena-only document, which is how the site stores it,
// and on its materialized tree, flattened again by ReadArena.
func FuzzResolveParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 11, 42} {
		f.Add(seed, uint8(4), uint8(90), uint8(80))
		f.Add(seed, uint8(8), uint8(60), uint8(50))
		f.Add(seed, uint8(2), uint8(100), uint8(100))
	}
	docs := parityDocs(f)
	f.Fuzz(func(t *testing.T, seed int64, nops, showPct, writePct uint8) {
		for d, doc := range docs {
			s, visible, writable := paritySetup(doc, seed, 1+int(nops%12), int(showPct%101), int(writePct%101))
			if s == nil {
				continue
			}
			ctx := context.Background()
			wantRes, wantReport := refResolve(ctx, doc, s, visible, writable)
			for _, target := range []*dom.Document{doc, doc.ReadTree()} {
				gotRes, gotReport := Resolve(ctx, target, s, visible, writable)
				if !reflect.DeepEqual(gotReport, wantReport) {
					t.Fatalf("doc %d: reports differ for\n%s\narena: %v\ntree:  %v", d, s.Canonical(), gotReport, wantReport)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("doc %d: resolutions differ for\n%s\narena: %+v\ntree:  %+v", d, s.Canonical(), gotRes, wantRes)
				}
			}
		}
	})
}
