package main

import (
	"fmt"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/workload"
)

// The mask-based view pipeline's full per-request serve path (compute
// view + unparse), measured with the standard library benchmark harness
// so allocation costs are visible: the pipeline labels the shared
// document in place, derives a visibility bitmask, and serializes
// straight through the mask.

// viewBenchResult is one measured (case, pipeline) cell, and the record
// format of BENCH_view.json.
type viewBenchResult struct {
	Case     string  `json:"case"`
	Nodes    int     `json:"nodes"`
	Pipeline string  `json:"pipeline"`
	NsPerOp  float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

func expView() error {
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
		{Depth: 3, Fanout: 4, Attrs: 2, Seed: 11},
		{Depth: 4, Fanout: 5, Attrs: 2, Seed: 12},
		{Depth: 5, Fanout: 5, Attrs: 2, Seed: 13},
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
		// Served documents carry their arena (the parser builds it); a
		// generated one would otherwise be flattened on every call.
		doc.BuildArena()
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

	var results []viewBenchResult
	fmt.Printf("%-14s %-8s %-10s %-14s %-14s %-12s\n",
		"case", "nodes", "pipeline", "ns/op", "bytes/op", "allocs/op")
	for _, c := range cases {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				view, err := c.eng.ComputeView(c.req, c.doc)
				if err != nil {
					b.Fatal(err)
				}
				var sb strings.Builder
				if err := view.WriteXML(&sb, dom.WriteOptions{Indent: "  "}); err != nil {
					b.Fatal(err)
				}
			}
		})
		r := viewBenchResult{
			Case:     c.name,
			Nodes:    c.doc.CountNodes(),
			Pipeline: "mask",
			NsPerOp:  float64(br.NsPerOp()),
			BytesOp:  br.AllocedBytesPerOp(),
			AllocsOp: br.AllocsPerOp(),
		}
		results = append(results, r)
		fmt.Printf("%-14s %-8d %-10s %-14.0f %-14d %-12d\n",
			r.Case, r.Nodes, r.Pipeline, r.NsPerOp, r.BytesOp, r.AllocsOp)
	}
	fmt.Println("(serve path = compute view + unparse)")

	return writeJSON(results)
}
