package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/workload"
)

// E16 — the struct-of-arrays arena under the mask pipeline: label +
// mask + unparse through the visibility bitmask, every sweep over
// parallel arrays indexed by preorder position with pre-escaped byte
// spans. BENCH_dom.json also holds "tree" rows recorded when these
// stages had pointer-tree implementations; this experiment no longer
// produces them.

// domBenchResult is one measured (case, representation, stage) cell,
// and the record format of BENCH_dom.json. Stage "serve" is the full
// steady-state cycle (label + mask + unparse, node-set index warm);
// stage "serve-cold" disables the index so every request re-evaluates
// every applicable path — the XPath-dominated path, run by the
// arena-native evaluator; stage "unparse" times serialization alone.
type domBenchResult struct {
	Case     string  `json:"case"`
	Nodes    int     `json:"nodes"`
	Repr     string  `json:"repr"`
	Stage    string  `json:"stage"`
	NsPerOp  float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

func expDom() error {
	type benchCase struct {
		name string
		eng  *core.Engine
		req  core.Request
		doc  *dom.Document
	}
	var cases []benchCase

	labEng := core.NewEngine(labexample.Directory(), labexample.Store())
	labDoc, _ := labexample.Parse()
	cases = append(cases, benchCase{
		name: "labexample",
		eng:  labEng,
		req:  core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI},
		doc:  labDoc,
	})

	sizes := []workload.DocConfig{
		{Depth: 3, Fanout: 4, Attrs: 2, Seed: 21},
		{Depth: 4, Fanout: 5, Attrs: 2, Seed: 22},
		{Depth: 5, Fanout: 5, Attrs: 3, Seed: 23},
	}
	if quick {
		sizes = sizes[:1]
	}
	for _, dc := range sizes {
		cfg := workload.AuthConfig{
			N: 32, Doc: dc,
			SchemaFraction:    0.25,
			PredicateFraction: 0.4,
			Seed:              dc.Seed * 31,
		}.Norm()
		doc := workload.GenDocument(dc)
		inst, schema := workload.GenAuths(cfg)
		store := authz.NewStore()
		if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
			return err
		}
		if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
			return err
		}
		eng := core.NewEngine(workload.GenDirectory(cfg.Pop), store)
		cases = append(cases, benchCase{
			name: fmt.Sprintf("gen-d%df%d", dc.Depth, dc.Fanout),
			eng:  eng,
			req: core.Request{
				Requester: workload.GenRequester(cfg.Pop, dc.Seed+7),
				URI:       cfg.URI,
				DTDURI:    cfg.DTDURI,
			},
			doc: doc,
		})
	}

	var results []domBenchResult
	fmt.Printf("%-14s %-8s %-8s %-9s %-14s %-14s %-12s\n",
		"case", "nodes", "repr", "stage", "ns/op", "bytes/op", "allocs/op")
	bench := func(fn func() error) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, c := range cases {
		hint := c.doc.Arena().SizeHint()
		nodes := c.doc.CountNodes()
		view, err := c.eng.ComputeView(c.req, c.doc)
		if err != nil {
			return err
		}
		serve := func() error {
			view, err := c.eng.ComputeView(c.req, c.doc)
			if err != nil {
				return err
			}
			b := dom.GetBuffer(hint)
			err = view.WriteXML(b, dom.WriteOptions{Indent: "  "})
			dom.PutBuffer(b)
			return err
		}
		unparse := func() error {
			b := dom.GetBuffer(hint)
			err := view.WriteXML(b, dom.WriteOptions{Indent: "  "})
			dom.PutBuffer(b)
			return err
		}
		for _, st := range []struct {
			name string
			fn   func() error
			cold bool
		}{{"serve", serve, false}, {"serve-cold", serve, true}, {"unparse", unparse, false}} {
			var saved *core.AuthIndex
			if st.cold {
				saved = c.eng.AuthIndex()
				c.eng.SetAuthIndex(nil)
			}
			br := bench(st.fn)
			if st.cold {
				c.eng.SetAuthIndex(saved)
			}
			r := domBenchResult{
				Case:     c.name,
				Nodes:    nodes,
				Repr:     "arena",
				Stage:    st.name,
				NsPerOp:  float64(br.NsPerOp()),
				BytesOp:  br.AllocedBytesPerOp(),
				AllocsOp: br.AllocsPerOp(),
			}
			results = append(results, r)
			fmt.Printf("%-14s %-8d %-8s %-9s %-14.0f %-14d %-12d\n",
				r.Case, r.Nodes, r.Repr, r.Stage, r.NsPerOp, r.BytesOp, r.AllocsOp)
		}
	}
	fmt.Println("(serve = label + mask + pooled unparse with the node-set index warm;")
	fmt.Println(" serve-cold = same cycle with the index disabled, XPath per request;")
	fmt.Println(" unparse = serialization alone)")

	if jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}
