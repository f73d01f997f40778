package core_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// The sparse labeling stores labels for the named nodes and their
// ancestor chains only, and answers for
// every other node from its nearest stored ancestor. These tests pin it
// to NaiveLabel, which labels every node from first principles, and pin
// what a view miss costs to what the authorizations name.

// sparsePaths are path templates over workload.GenDocument's names
// (e<level>x<k>, attributes a0..a<n-1>). They cover named elements,
// attribute targets, positional predicates, value predicates, and
// paths that select text or the root node, which carry no label.
var sparsePaths = []string{
	"/root",
	"/root/e1x%[1]d",
	"/root/e1x%[1]d/e2x%[2]d",
	"//e%[3]dx%[1]d",
	"(//e%[3]dx%[1]d)[%[4]d]",
	"//e%[3]dx%[2]d[%[4]d]",
	"//e%[3]dx%[1]d/@a%[5]d",
	"//@a%[5]d",
	"//*[@a%[5]d='%[1]d']",
	"/root/e1x%[2]d//*[@a%[5]d='%[2]d']/@a%[5]d",
	"//e%[3]dx%[2]d/text()",
	"/",
	"//*",
	"(//*)[%[4]d]",
	"//e%[3]dx%[1]d/ancestor::*",
}

// fuzzAuths decodes authorizations from fuzz bytes, five bytes each:
// subject, path template, path parameters, sign and type, and level.
// Subjects are Public, the requester's group and the requester, so
// most-specific-subject filtering and the conflict rules both engage.
func fuzzAuths(data []byte, depth, attrs int) (inst, schema []*authz.Authorization) {
	subs := []string{"Public", "g", "u"}
	types := []string{"L", "R", "LW", "RW"}
	for ; len(data) >= 5; data = data[5:] {
		b := data[:5]
		level := 1 + int(b[2]>>4)%depth
		path := fmt.Sprintf(sparsePaths[int(b[1])%len(sparsePaths)],
			int(b[2])%3, int(b[2]>>2)%3, level, 1+int(b[3]>>4)%4, int(b[3]>>2)%max(attrs, 1))
		sign := "+"
		if b[3]&1 != 0 {
			sign = "-"
		}
		typ := types[int(b[4])%4]
		atSchema := b[4]&4 != 0
		uri := "doc.xml"
		if atSchema {
			uri = "doc.dtd"
			typ = typ[:1] // no weak types at schema level
		}
		a, err := authz.Parse(fmt.Sprintf("<<%s,*,*>,%s:%s,read,%s,%s>",
			subs[int(b[0])%3], uri, path, sign, typ))
		if err != nil {
			continue
		}
		if atSchema {
			schema = append(schema, a)
		} else {
			inst = append(inst, a)
		}
	}
	return inst, schema
}

// sparseSetup builds an engine over a parsed GenDocument (so the
// document carries its arena, as served documents do) and the decoded
// authorizations, under the given policy.
func sparseSetup(t testing.TB, cfg workload.DocConfig, data []byte, pol core.Policy) (*core.Engine, core.Request, *dom.Document) {
	t.Helper()
	res, err := xmlparse.Parse(workload.GenDocument(cfg).String(), xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := subjects.NewDirectory()
	if err := dir.AddGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := dir.AddUser("u", "g"); err != nil {
		t.Fatal(err)
	}
	store := authz.NewStore()
	inst, schema := fuzzAuths(data, cfg.Norm().Depth, cfg.Attrs)
	if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
		t.Fatal(err)
	}
	if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(dir, store)
	eng.SetPolicy("doc.xml", pol)
	req := core.Request{
		Requester: subjects.Requester{User: "u", IP: "10.0.0.1", Host: "h.test.org"},
		URI:       "doc.xml",
		DTDURI:    "doc.dtd",
	}
	return eng, req, res.Doc
}

// assertSparseMatchesNaive checks the sparse labeling of doc against
// NaiveLabel: the full label of every index, the sign counts, the
// visibility mask, and that exactly the named nodes and their ancestors
// are stored.
func assertSparseMatchesNaive(t *testing.T, eng *core.Engine, req core.Request, doc *dom.Document) {
	t.Helper()
	sparse, _, err := eng.Label(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := eng.NaiveLabel(req, doc, true)
	if err != nil {
		t.Fatal(err)
	}
	ar := doc.ReadArena()
	for i := -1; i <= ar.Len(); i++ {
		if s, n := sparse.FinalAt(i), naive.FinalAt(i); s != n {
			t.Fatalf("FinalAt(%d): sparse %v, naive %v", i, s, n)
		}
	}
	named := map[int]bool{}
	exps, err := eng.Explain(req, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range exps {
		if s, n := sparse.Of(x.Node), naive.Of(x.Node); s == nil || n == nil || *s != *n {
			t.Fatalf("%s: sparse label %+v, naive %+v", x.Node.Path(), s, n)
		}
		if len(x.Direct) > 0 {
			named[x.Node.Order] = true
		}
	}
	sp, sm, se := sparse.Count()
	np, nm, ne := naive.Count()
	if sp != np || sm != nm || se != ne {
		t.Fatalf("sign counts: sparse %d+ %d- %dε, naive %d+ %d- %dε", sp, sm, se, np, nm, ne)
	}
	pol := eng.PolicyFor(req.URI)
	smask, skept := core.Visibility(doc, sparse, pol)
	nmask, nkept := core.Visibility(doc, naive, pol)
	if skept != nkept {
		t.Fatalf("kept: sparse %d, naive %d", skept, nkept)
	}
	for i := 0; i < ar.Len(); i++ {
		if smask.Get(i) != nmask.Get(i) {
			t.Fatalf("mask bit %d: sparse %v, naive %v", i, smask.Get(i), nmask.Get(i))
		}
	}
	// The stored set: the named nodes and their ancestors.
	stored := map[int32]bool{}
	for i := range named {
		for a := int32(i); a > 0; a = ar.Parent(a) {
			stored[a] = true
		}
	}
	if sparse.Stored() != len(stored) {
		t.Fatalf("stored %d labels, want %d (%d named)", sparse.Stored(), len(stored), len(named))
	}
}

// TestSparseLabelingStoresNamedChains runs the parity check over the
// templates one at a time, under every conflict rule and both policies.
func TestSparseLabelingStoresNamedChains(t *testing.T) {
	cfg := workload.DocConfig{Depth: 3, Fanout: 3, Attrs: 2, Seed: 5}
	for p := range sparsePaths {
		for _, conflict := range []core.ConflictRule{core.DenialsTakePrecedence,
			core.PermissionsTakePrecedence, core.NothingTakesPrecedence, core.MajorityTakesPrecedence} {
			for _, open := range []bool{false, true} {
				data := []byte{
					0, byte(p), 0x13, 0x24, 1, // Public, recursive grant
					2, byte(p), 0x25, 0x31, 0, // the requester, local denial
					1, 3, 0x16, 0x12, 6, // the group, schema-level grant
				}
				eng, req, doc := sparseSetup(t, cfg, data, core.Policy{Conflict: conflict, Open: open})
				assertSparseMatchesNaive(t, eng, req, doc)
			}
		}
	}
}

// FuzzSparseLabelParity: for any document shape, authorization set and
// policy, the sparse labeling answers FinalAt for every index exactly
// as NaiveLabel does, and its counts, mask and stored set follow.
func FuzzSparseLabelParity(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(2), uint8(0), []byte{0, 1, 0x13, 0x24, 1, 2, 6, 0x25, 0x31, 0})
	f.Add(uint8(2), uint8(4), uint8(1), uint8(5), []byte{1, 4, 0x40, 0x10, 2, 0, 7, 0x01, 0x05, 4})
	f.Add(uint8(4), uint8(2), uint8(3), uint8(2), []byte{0, 9, 0x22, 0x33, 3, 2, 13, 0x11, 0x20, 0, 1, 8, 3, 3, 5})
	f.Add(uint8(1), uint8(1), uint8(0), uint8(7), []byte{})
	f.Fuzz(func(t *testing.T, depth, fanout, attrs, pol uint8, data []byte) {
		cfg := workload.DocConfig{
			Depth:  1 + int(depth)%4,
			Fanout: 1 + int(fanout)%4,
			Attrs:  int(attrs) % 4,
			Seed:   int64(pol),
		}
		if len(data) > 60 {
			data = data[:60]
		}
		policy := core.Policy{Conflict: core.ConflictRule(pol % 4), Open: pol&4 != 0}
		eng, req, doc := sparseSetup(t, cfg, data, policy)
		assertSparseMatchesNaive(t, eng, req, doc)
	})
}

// maskSink keeps the measured mask allocation from being optimized away.
var maskSink dom.Bitmask

// TestViewMissCostFollowsNamedNodes is the allocation budget of a view
// miss: ComputeView plus the serve path's WriteXML, with warm node-sets
// and a rendered document, on a 2,967-node and a 14,842-node document
// under the same authorizations. The authorizations name the same nodes
// in both, so the allocations must be the same in number, and the bytes
// may grow only by the mask's words.
func TestViewMissCostFollowsNamedNodes(t *testing.T) {
	data := []byte{
		0, 0, 0x00, 0x00, 1, // Public: /root, recursive grant
		0, 2, 0x04, 0x01, 1, // Public: /root/e1x0/e2x1, recursive denial
		2, 2, 0x01, 0x00, 0, // u: /root/e1x1/e2x0, local grant
	}
	type cost struct{ allocs, bytes, mask float64 }
	// bytesPer is the heap bytes one call of f allocates, averaged.
	bytesPer := func(f func()) float64 {
		const runs = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	measure := func(depth int) cost {
		cfg := workload.DocConfig{Depth: depth, Fanout: 5, Attrs: 2, Seed: 1}
		eng, req, doc := sparseSetup(t, cfg, data, core.DefaultPolicy)
		miss := func() {
			v, err := eng.ComputeView(req, doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.WriteXML(io.Discard, dom.WriteOptions{Indent: dom.ServeIndent}); err != nil {
				t.Fatal(err)
			}
		}
		miss() // fills the node-set index and renders the document
		n := doc.ReadArena().Len()
		return cost{
			allocs: testing.AllocsPerRun(200, miss),
			bytes:  bytesPer(miss),
			mask:   bytesPer(func() { maskSink = dom.NewBitmask(n) }),
		}
	}
	small, large := measure(4), measure(5)
	t.Logf("2,967 nodes: %.0f allocs, %.0f B per miss; 14,842 nodes: %.0f allocs, %.0f B per miss",
		small.allocs, small.bytes, large.allocs, large.bytes)
	if small.allocs != large.allocs {
		t.Errorf("allocations per miss grow with the document: %.0f at 2,967 nodes, %.0f at 14,842",
			small.allocs, large.allocs)
	}
	// Allow 64 B of noise per miss on top of the mask's extra words.
	if budget := small.bytes + (large.mask - small.mask) + 64; large.bytes > budget {
		t.Errorf("bytes per miss grow with the document: %.0f at 2,967 nodes, %.0f at 14,842 (budget %.0f)",
			small.bytes, large.bytes, budget)
	}
}
