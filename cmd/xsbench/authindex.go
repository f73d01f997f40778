package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/workload"
)

// E12 — the per-document authorization node-set index: cold labeling
// (every request evaluates every applicable path expression, the
// paper's set-at-a-time baseline) against warm labeling (cached
// node-sets, zero XPath work) on a multi-requester workload. The
// workload cycles many distinct requesters over one shared document —
// the million-user shape the ROADMAP targets — because that is exactly
// where the index pays: node-sets depend on (path, document) only, so
// every requester after the first reuses them.
//
// Cold labeling runs the arena-native evaluator, collecting
// index-space node-sets. BENCH_authindex.json also holds "cold-tree"
// rows recorded when labeling had a pointer-tree route; this
// experiment no longer produces them.

// authIndexBenchResult is one measured (case, mode) cell, and the
// record format of BENCH_authindex.json.
type authIndexBenchResult struct {
	Case       string  `json:"case"`
	Nodes      int     `json:"nodes"`
	Auths      int     `json:"auths"`
	Requesters int     `json:"requesters"`
	Mode       string  `json:"mode"` // "cold-arena" or "warm"
	NsPerOp    float64 `json:"ns_op"`
	BytesOp    int64   `json:"bytes_op"`
	AllocsOp   int64   `json:"allocs_op"`
	// Speedup: warm rows report cold-arena/warm (the index win).
	Speedup float64 `json:"speedup,omitempty"`
}

func expAuthIndex() error {
	type benchCase struct {
		name  string
		doc   workload.DocConfig
		auths int
	}
	cases := []benchCase{
		{"d3f4-a32", workload.DocConfig{Depth: 3, Fanout: 4, Attrs: 2, Seed: 21}, 32},
		{"d4f5-a64", workload.DocConfig{Depth: 4, Fanout: 5, Attrs: 2, Seed: 22}, 64},
	}
	if quick {
		cases = cases[:1]
	}
	const nRequesters = 16

	var results []authIndexBenchResult
	fmt.Printf("%-12s %-8s %-6s %-6s %-11s %-14s %-14s %-12s\n",
		"case", "nodes", "auths", "reqs", "mode", "ns/op", "bytes/op", "allocs/op")
	for _, c := range cases {
		cfg := workload.AuthConfig{
			N: c.auths, Doc: c.doc,
			SchemaFraction:    0.25,
			PredicateFraction: 0.4,
			Seed:              c.doc.Seed * 17,
		}.Norm()
		doc := workload.GenDocument(c.doc)
		inst, schema := workload.GenAuths(cfg)
		store := authz.NewStore()
		if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
			return err
		}
		if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
			return err
		}
		dir := workload.GenDirectory(cfg.Pop)

		reqs := make([]core.Request, nRequesters)
		for i := range reqs {
			reqs[i] = core.Request{
				Requester: workload.GenRequester(cfg.Pop, c.doc.Seed*1000+int64(i)),
				URI:       cfg.URI,
				DTDURI:    cfg.DTDURI,
			}
		}

		cold := core.NewEngine(dir, store)
		cold.SetAuthIndex(nil) // the uncached oracle: XPath per request
		warm := core.NewEngine(dir, store)
		warm.WarmAuthIndex(doc, cfg.URI, cfg.DTDURI, 8)

		// Sanity: warm and cold labelings must serve identical views for
		// every requester before we time anything.
		for _, req := range reqs {
			vw, err := warm.ComputeView(req, doc)
			if err != nil {
				return err
			}
			vc, err := cold.ComputeView(req, doc)
			if err != nil {
				return err
			}
			if vw.XMLIndent("  ") != vc.XMLIndent("  ") {
				return fmt.Errorf("%s: warm/cold views disagree for %s", c.name, req.Requester)
			}
		}

		nodes := doc.CountNodes()
		var nsCold float64
		for _, mode := range []struct {
			name string
			eng  *core.Engine
		}{{"cold-arena", cold}, {"warm", warm}} {
			eng := mode.eng
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := eng.Label(reqs[i%len(reqs)], doc); err != nil {
						b.Fatal(err)
					}
				}
			})
			r := authIndexBenchResult{
				Case:       c.name,
				Nodes:      nodes,
				Auths:      c.auths,
				Requesters: nRequesters,
				Mode:       mode.name,
				NsPerOp:    float64(br.NsPerOp()),
				BytesOp:    br.AllocedBytesPerOp(),
				AllocsOp:   br.AllocsPerOp(),
			}
			suffix := ""
			if mode.name == "warm" && nsCold > 0 {
				r.Speedup = nsCold / r.NsPerOp
				suffix = fmt.Sprintf("  (%.2fx vs cold-arena)", r.Speedup)
			} else {
				nsCold = r.NsPerOp
			}
			results = append(results, r)
			fmt.Printf("%-12s %-8d %-6d %-6d %-11s %-14.0f %-14d %-12d%s\n",
				r.Case, r.Nodes, r.Auths, r.Requesters, r.Mode, r.NsPerOp, r.BytesOp, r.AllocsOp, suffix)
		}
	}
	fmt.Println("(cold-arena = index disabled, every request evaluates every applicable")
	fmt.Println(" path with the arena-native evaluator;")
	fmt.Println(" warm = node-set index pre-filled, steady-state labeling does zero XPath work;")
	fmt.Println(" requests cycle distinct requesters, so warm hits are cross-requester reuse)")

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
