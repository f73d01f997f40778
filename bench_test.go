// Package xmlsec_test holds the repository-level benchmark harness: one
// testing.B benchmark (family) per experiment in DESIGN.md §2. Run with
//
//	go test -bench=. -benchmem
//
// The xsbench command reproduces the same experiments as formatted
// tables; these benchmarks are the statistically careful counterpart.
package xmlsec_test

import (
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/labexample"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

// --- E3/E6: the paper's worked example through the full processor ---

// BenchmarkComputeViewCSlab measures compute-view on the Figure 3
// document for Example 2's requester.
func BenchmarkComputeViewCSlab(b *testing.B) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ComputeView(req, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: propagation vs naive labeling, swept over size and auths ---

type onlineCase struct {
	doc   *dom.Document
	eng   *core.Engine
	req   core.Request
	nodes int
}

func onlineSetup(b *testing.B, depth, fanout, nauths int) onlineCase {
	b.Helper()
	dc := workload.DocConfig{Depth: depth, Fanout: fanout, Attrs: 2, Seed: 1}
	cfg := workload.AuthConfig{
		N: nauths, Doc: dc, SchemaFraction: 0.25,
		PredicateFraction: 0.5, WeakFraction: 0.2, Seed: int64(nauths),
	}.Norm()
	doc := workload.GenDocument(dc)
	inst, schema := workload.GenAuths(cfg)
	store := authz.NewStore()
	if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
		b.Fatal(err)
	}
	if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(workload.GenDirectory(cfg.Pop), store)
	req := core.Request{
		Requester: workload.GenRequester(cfg.Pop, 7),
		URI:       cfg.URI, DTDURI: cfg.DTDURI,
	}
	return onlineCase{doc: doc, eng: eng, req: req, nodes: doc.CountNodes()}
}

// BenchmarkLabelPropagation is the paper's algorithm (E5 fast path).
func BenchmarkLabelPropagation(b *testing.B) {
	for _, size := range []struct{ depth, fanout int }{{2, 3}, {3, 4}, {4, 5}} {
		for _, na := range []int{4, 16, 64} {
			c := onlineSetup(b, size.depth, size.fanout, na)
			b.Run(fmt.Sprintf("nodes=%d/auths=%d", c.nodes, na), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.eng.Label(c.req, c.doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNaiveLabelingMemo is the no-propagation baseline with shared
// node-sets (E5).
func BenchmarkNaiveLabelingMemo(b *testing.B) {
	for _, size := range []struct{ depth, fanout int }{{2, 3}, {3, 4}, {4, 5}} {
		for _, na := range []int{4, 16, 64} {
			c := onlineSetup(b, size.depth, size.fanout, na)
			b.Run(fmt.Sprintf("nodes=%d/auths=%d", c.nodes, na), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.eng.NaiveLabel(c.req, c.doc, true); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNaiveLabelingFull re-evaluates every path expression per
// node (E5's full strawman); sizes are kept small because it explodes.
func BenchmarkNaiveLabelingFull(b *testing.B) {
	for _, na := range []int{4, 16} {
		c := onlineSetup(b, 2, 3, na)
		b.Run(fmt.Sprintf("nodes=%d/auths=%d", c.nodes, na), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.NaiveLabel(c.req, c.doc, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: the four-step processor cycle, step by step ---

func BenchmarkPipelineParse(b *testing.B) {
	loader := xmlparse.MapLoader{labexample.DTDURI: labexample.DTDSource}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xmlparse.Parse(labexample.DocSource, xmlparse.Options{Loader: loader}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineLabel(b *testing.B) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Label(req, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelinePrune(b *testing.B) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	lb, _, err := eng.Label(req, doc)
	if err != nil {
		b.Fatal(err)
	}
	pol := eng.PolicyFor(req.URI)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := doc.Clone()
		core.PruneDoc(work, lb, pol)
	}
}

func BenchmarkPipelineUnparse(b *testing.B) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	view, err := eng.ComputeView(req, doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := view.WriteXML(&sb, dom.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFullCycle is the paper's whole four-step cycle:
// parse, label, prune, unparse. The server parses a document once, when
// it is registered, so a served read pays only the last three steps.
func BenchmarkPipelineFullCycle(b *testing.B) {
	loader := xmlparse.MapLoader{labexample.DTDURI: labexample.DTDSource}
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := xmlparse.Parse(labexample.DocSource, xmlparse.Options{Loader: loader})
		if err != nil {
			b.Fatal(err)
		}
		view, err := eng.ComputeView(req, res.Doc)
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := view.WriteXML(&sb, dom.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: loosening and loosened validation ---

func BenchmarkLoosenDTD(b *testing.B) {
	d := dtd.MustParse(labexample.DTDSource)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Loosen()
	}
}

func BenchmarkValidateViewLoosened(b *testing.B) {
	d := dtd.MustParse(labexample.DTDSource)
	loose := d.Loosen()
	loose.CompileAll()
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	view, err := eng.ComputeView(req, doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := loose.Validate(view.Materialize(), dtd.ValidateOptions{IgnoreIDs: true}); errs != nil {
			b.Fatal(errs)
		}
	}
}

// --- E8: subject hierarchy evaluation ---

func BenchmarkSubjectLeq(b *testing.B) {
	dir := workload.GenDirectory(workload.PopConfig{Users: 500, Groups: 50, Seed: 1})
	h := subjects.Hierarchy{Dir: dir}
	lo := subjects.MustNewSubject("u1", "10.1.2.3", "h1.dom1.org")
	hi := subjects.MustNewSubject("g1", "10.1.*", "*.dom1.org")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Leq(lo, hi)
	}
}

func BenchmarkMostSpecific(b *testing.B) {
	dir := workload.GenDirectory(workload.PopConfig{Users: 500, Groups: 50, Seed: 1})
	h := subjects.Hierarchy{Dir: dir}
	cfg := workload.AuthConfig{N: 16, Pop: workload.PopConfig{Users: 500, Groups: 50, Seed: 1}, Seed: 11}.Norm()
	inst, schema := workload.GenAuths(cfg)
	all := append(inst, schema...)
	sub := func(a *authz.Authorization) subjects.Subject { return a.Subject }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subjects.MostSpecific(h, all, sub)
	}
}

// --- E9: the Example 1 path expressions ---

func BenchmarkXPathExample1(b *testing.B) {
	doc, _ := labexample.Parse()
	exprs := map[string]string{
		"absolute":   `/laboratory/project`,
		"descendant": `/laboratory//paper[./@category="private"]`,
		"predicate":  `//project[./@type="internal"]`,
		"ancestor":   `//fund/ancestor::project`,
	}
	for name, src := range exprs {
		p := xpath.MustCompile(src)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.SelectDoc(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkXPathCompile(b *testing.B) {
	src := `/laboratory//paper[./@category="private"]`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXPathScaling evaluates a descendant query over growing
// documents, isolating the object-evaluation cost the set-at-a-time
// strategy amortizes.
func BenchmarkXPathScaling(b *testing.B) {
	for _, depth := range []int{3, 4, 5} {
		doc := workload.GenDocument(workload.DocConfig{Depth: depth, Fanout: 4, Attrs: 2, Seed: 2})
		p := xpath.MustCompile(`//` + workload.ElemName(depth, 0) + `[./@a0='1']`)
		b.Run(fmt.Sprintf("nodes=%d", doc.CountNodes()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.SelectDoc(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- supporting costs: XACL parsing, document parsing at scale ---

func BenchmarkXACLParse(b *testing.B) {
	x := &authz.XACL{About: labexample.DocURI}
	for _, t := range labexample.AuthTuples[1:] {
		x.Auths = append(x.Auths, authz.MustParse(t))
	}
	src := x.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := authz.ParseXACL(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseScaling(b *testing.B) {
	for _, depth := range []int{3, 4, 5} {
		doc := workload.GenDocument(workload.DocConfig{Depth: depth, Fanout: 4, Attrs: 2, Seed: 3})
		var sb strings.Builder
		if err := doc.Write(&sb, dom.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
		src := sb.String()
		b.Run(fmt.Sprintf("bytes=%d", len(src)), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xmlparse.Parse(src, xmlparse.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation: the server's view cache on/off ---

func benchSite(b *testing.B) *server.Site {
	b.Helper()
	site := server.NewSite()
	site.Directory = labexample.Directory()
	site.Engine.Hierarchy.Dir = site.Directory
	if err := site.Docs.AddDTD(labexample.DTDURI, labexample.DTDSource); err != nil {
		b.Fatal(err)
	}
	if err := site.Docs.AddDocument(labexample.DocURI, labexample.DocSource); err != nil {
		b.Fatal(err)
	}
	for i, tuple := range labexample.AuthTuples {
		level := authz.InstanceLevel
		if i == 0 {
			level = authz.SchemaLevel
		}
		if err := site.Auths.Add(level, authz.MustParse(tuple)); err != nil {
			b.Fatal(err)
		}
	}
	return site
}

func BenchmarkProcessNoCache(b *testing.B) {
	site := benchSite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessWithCache(b *testing.B) {
	site := benchSite(b).EnableViewCache(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension: write-through-views merge ---

func BenchmarkMergeViewNoOp(b *testing.B) {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
	view, err := eng.ComputeView(req, doc)
	if err != nil {
		b.Fatal(err)
	}
	writable := func(*dom.Node) bool { return false }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MergeView(doc, view, view.Materialize(), writable); err != nil {
			b.Fatal(err)
		}
	}
}
