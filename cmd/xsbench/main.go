// Command xsbench regenerates the experiments indexed in DESIGN.md §2.
// The paper (EDBT 2000) publishes no measured tables; its evaluation is
// the worked example of Figures 1 and 3 plus the claim that recursive
// propagation gives fast on-line view computation. xsbench reproduces
// each figure as a golden run and backs the performance claim with
// measured sweeps; EXPERIMENTS.md records the outputs.
//
// Usage:
//
//	xsbench -exp all            run everything
//	xsbench -exp fig3           one experiment: fig1 fig3 loosen online
//	                            pipeline conflict subjects xpath cache
//	                            stages view authindex
//	xsbench -exp view -json BENCH_view.json
//	                            mask-pipeline serve path, JSON output
//	xsbench -exp authindex -json BENCH_authindex.json
//	                            cold vs warm node-set-index labeling
//	xsbench -exp trace -json BENCH_trace.json
//	                            traced vs untraced request latency
//	xsbench -exp wal -json BENCH_wal.json
//	                            PUT throughput under each WAL fsync policy
//	xsbench -exp classes -json BENCH_classes.json
//	                            serve cost and cache footprint vs requester
//	                            population under class-keyed caching
//	xsbench -exp obs -json BENCH_obs.json
//	                            per-request cost-accounting overhead
//	xsbench -exp updates -json BENCH_updates.json
//	                            update scripts vs whole-document PUTs at
//	                            1%/10%/50% write fractions
//	xsbench -exp online -quick  smaller sweeps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

var (
	quick   bool
	jsonOut string
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig1 fig3 loosen online pipeline conflict subjects xpath cache stages view authindex trace wal classes dom obs updates all")
	flag.BoolVar(&quick, "quick", false, "smaller parameter sweeps")
	flag.StringVar(&jsonOut, "json", "", "write machine-readable results of the view/authindex/trace/wal experiments to this file")
	flag.Parse()

	experiments := map[string]func() error{
		"fig1":      expFig1,
		"fig3":      expFig3,
		"loosen":    expLoosen,
		"online":    expOnline,
		"pipeline":  expPipeline,
		"conflict":  expConflict,
		"subjects":  expSubjects,
		"xpath":     expXPath,
		"cache":     expCache,
		"stages":    expStages,
		"view":      expView,
		"authindex": expAuthIndex,
		"trace":     expTrace,
		"wal":       expWAL,
		"classes":   expClasses,
		"dom":       expDom,
		"obs":       expObs,
		"updates":   expUpdates,
	}
	order := []string{"fig1", "fig3", "loosen", "conflict", "subjects", "xpath", "pipeline", "online", "cache", "stages", "view", "authindex", "trace", "wal", "classes", "dom", "obs", "updates"}

	var names []string
	if *exp == "all" {
		names = order
	} else {
		for _, n := range strings.Split(*exp, ",") {
			if _, ok := experiments[n]; !ok {
				fmt.Fprintf(os.Stderr, "xsbench: unknown experiment %q\n", n)
				os.Exit(2)
			}
			names = append(names, n)
		}
	}
	for _, n := range names {
		fmt.Printf("=== experiment %s ===\n", n)
		if err := experiments[n](); err != nil {
			fmt.Fprintf(os.Stderr, "xsbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// measure runs fn repeatedly until it has consumed ~80ms (or 8 runs,
// whichever is later) and returns the mean duration per run.
func measure(fn func()) time.Duration {
	fn() // warm up
	var n int
	start := time.Now()
	for {
		fn()
		n++
		if el := time.Since(start); el > 80*time.Millisecond && n >= 3 {
			return el / time.Duration(n)
		}
		if n >= 10000 {
			return time.Since(start) / time.Duration(n)
		}
	}
}

// E1 — Figure 1: the laboratory DTD and its tree representation.
func expFig1() error {
	d, err := dtd.Parse(labexample.DTDSource)
	if err != nil {
		return err
	}
	fmt.Println("Figure 1(a): laboratory DTD")
	fmt.Print(labexample.DTDSource)
	fmt.Println("\nFigure 1(b): tree representation (element -> content, attributes)")
	for _, name := range d.ElementNames() {
		e := d.Element(name)
		fmt.Printf("  %-12s %s", name, e.ContentString())
		if defs := d.Attlists[name]; len(defs) > 0 {
			var attrs []string
			for _, a := range defs {
				attrs = append(attrs, "@"+a.Name)
			}
			fmt.Printf("   [%s]", strings.Join(attrs, " "))
		}
		fmt.Println()
	}
	doc, docDTD := labexample.Parse()
	if errs := docDTD.Validate(doc, dtd.ValidateOptions{}); errs != nil {
		return fmt.Errorf("CSlab.xml should validate: %w", errs)
	}
	fmt.Printf("\nCSlab.xml: valid instance, %d element+attribute nodes\n", doc.CountNodes())
	return nil
}

// E3 — Figure 3: the views of Example 2.
func expFig3() error {
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	fmt.Println("Example 1 authorizations:")
	for i, t := range labexample.AuthTuples {
		level := "instance"
		if i == 0 {
			level = "schema  "
		}
		fmt.Printf("  [%s] %s\n", level, t)
	}
	for _, rq := range []subjects.Requester{
		labexample.Tom,
		{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"},
		{User: "anonymous", IP: "200.1.2.3", Host: "outside.example.com"},
	} {
		req := core.Request{Requester: rq, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
		view, err := eng.ComputeView(req, doc)
		if err != nil {
			return err
		}
		fmt.Printf("\nView of %s (labels: %d+, %d-, %dε; kept %d/%d nodes):\n",
			rq, view.Stats.Plus, view.Stats.Minus, view.Stats.Eps, view.Stats.Kept, view.Stats.Nodes)
		fmt.Println(indentBlock(view.XMLIndent("  "), "  "))
	}
	return nil
}

// E4 — loosening: pruned views always validate against the loosened DTD.
func expLoosen() error {
	d, err := dtd.Parse(labexample.DTDSource)
	if err != nil {
		return err
	}
	loose := d.Loosen()
	fmt.Println("Loosened laboratory DTD:")
	fmt.Print(loose.String())

	// Check the invariant over every distinct single-user view.
	eng := core.NewEngine(labexample.Directory(), labexample.Store())
	doc, _ := labexample.Parse()
	checks := 0
	for _, rq := range []subjects.Requester{
		labexample.Tom,
		{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"},
		{User: "anonymous", IP: "200.1.2.3", Host: "x.example.com"},
		{User: "Alice", IP: "151.100.1.1", Host: "a.dsi.it"},
	} {
		req := core.Request{Requester: rq, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
		view, err := eng.ComputeView(req, doc)
		if err != nil {
			return err
		}
		if view.Empty() {
			continue
		}
		if errs := loose.Validate(view.Materialize(), dtd.ValidateOptions{IgnoreIDs: true}); errs != nil {
			return fmt.Errorf("view of %s violates loosened DTD: %w", rq, errs)
		}
		if errs := d.Validate(view.Materialize(), dtd.ValidateOptions{IgnoreIDs: true}); errs == nil {
			fmt.Printf("  note: view of %s happens to satisfy the original DTD too\n", rq)
		}
		checks++
	}
	fmt.Printf("loosening invariant held for %d/%d non-empty views\n", checks, checks)
	return nil
}

// E5 — "fast on-line computation": propagation labeling vs the naive
// per-node baselines, sweeping document size and authorization count.
func expOnline() error {
	sizes := []workload.DocConfig{
		{Depth: 2, Fanout: 3, Attrs: 2},
		{Depth: 3, Fanout: 4, Attrs: 2},
		{Depth: 4, Fanout: 5, Attrs: 2},
		{Depth: 5, Fanout: 5, Attrs: 2},
	}
	authCounts := []int{4, 16, 64, 256}
	if quick {
		sizes = sizes[:3]
		authCounts = []int{4, 16, 64}
	}
	fmt.Printf("%-8s %-6s %-6s %-12s %-14s %-14s %-9s %-9s\n",
		"nodes", "auths", "appl", "propagation", "naive(memo)", "naive(full)", "memo/fast", "full/fast")
	for _, dc := range sizes {
		doc := workload.GenDocument(dc)
		nodes := doc.CountNodes()
		for _, na := range authCounts {
			cfg := workload.AuthConfig{
				N: na, Doc: dc, SchemaFraction: 0.25,
				PredicateFraction: 0.5, WeakFraction: 0.2, Seed: int64(na),
			}.Norm()
			inst, schema := workload.GenAuths(cfg)
			store := authz.NewStore()
			if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
				return err
			}
			if err := store.AddAll(authz.SchemaLevel, schema); err != nil {
				return err
			}
			dir := workload.GenDirectory(cfg.Pop)
			eng := core.NewEngine(dir, store)
			req := core.Request{
				Requester: workload.GenRequester(cfg.Pop, 7),
				URI:       cfg.URI, DTDURI: cfg.DTDURI,
			}
			_, stats, err := eng.Label(req, doc)
			if err != nil {
				return err
			}
			appl := stats.AuthsInstance + stats.AuthsSchema
			fast := measure(func() {
				if _, _, err := eng.Label(req, doc); err != nil {
					panic(err)
				}
			})
			memo := measure(func() {
				if _, err := eng.NaiveLabel(req, doc, true); err != nil {
					panic(err)
				}
			})
			full := time.Duration(0)
			fullStr := "-"
			if nodes*na <= 10000 { // the full strawman explodes quickly
				full = measure(func() {
					if _, err := eng.NaiveLabel(req, doc, false); err != nil {
						panic(err)
					}
				})
				fullStr = full.String()
			}
			row := fmt.Sprintf("%-8d %-6d %-6d %-12s %-14s %-14s %-9.1f",
				nodes, na, appl, fast, memo, fullStr, float64(memo)/float64(fast))
			if full > 0 {
				row += fmt.Sprintf(" %-9.1f", float64(full)/float64(fast))
			} else {
				row += " -"
			}
			fmt.Println(row)
		}
	}
	fmt.Println("(propagation = the paper's single-pass algorithm; naive(memo) = per-node")
	fmt.Println(" ancestor-chain evaluation with shared node-sets; naive(full) re-evaluates")
	fmt.Println(" every path expression per node)")
	return nil
}

// E6 — the four-step processor cycle, broken down.
func expPipeline() error {
	type workloadCase struct {
		name string
		src  string
		dtds xmlparse.MapLoader
		uri  string
	}
	cases := []workloadCase{{
		name: "CSlab",
		src:  labexample.DocSource,
		dtds: xmlparse.MapLoader{labexample.DTDURI: labexample.DTDSource},
		uri:  labexample.DocURI,
	}}
	for _, dc := range []workload.DocConfig{
		{Depth: 3, Fanout: 4, Attrs: 2},
		{Depth: 4, Fanout: 5, Attrs: 2},
	} {
		doc := workload.GenDocument(dc)
		var b strings.Builder
		if err := doc.Write(&b, dom.WriteOptions{}); err != nil {
			return err
		}
		cases = append(cases, workloadCase{
			name: fmt.Sprintf("synthetic-%dn", doc.CountNodes()),
			src:  b.String(),
			uri:  "bench.xml",
		})
	}
	fmt.Printf("%-18s %-10s %-10s %-10s %-10s %-10s\n", "document", "parse", "label", "prune", "unparse", "total")
	for _, c := range cases {
		res, err := xmlparse.Parse(c.src, xmlparse.Options{Loader: c.dtds})
		if err != nil {
			return err
		}
		var eng *core.Engine
		var req core.Request
		if c.uri == labexample.DocURI {
			eng = core.NewEngine(labexample.Directory(), labexample.Store())
			req = core.Request{Requester: labexample.Tom, URI: c.uri, DTDURI: labexample.DTDURI}
		} else {
			cfg := workload.AuthConfig{N: 16, SchemaFraction: 0, PredicateFraction: 0.5, Seed: 3}.Norm()
			inst, _ := workload.GenAuths(cfg)
			store := authz.NewStore()
			if err := store.AddAll(authz.InstanceLevel, inst); err != nil {
				return err
			}
			eng = core.NewEngine(workload.GenDirectory(cfg.Pop), store)
			req = core.Request{Requester: workload.GenRequester(cfg.Pop, 7), URI: cfg.URI}
		}
		parse := measure(func() {
			if _, err := xmlparse.Parse(c.src, xmlparse.Options{Loader: c.dtds}); err != nil {
				panic(err)
			}
		})
		label := measure(func() {
			if _, _, err := eng.Label(req, res.Doc); err != nil {
				panic(err)
			}
		})
		lb, _, err := eng.Label(req, res.Doc)
		if err != nil {
			return err
		}
		pol := eng.PolicyFor(req.URI)
		prune := measure(func() { core.Visibility(res.Doc, lb, pol) })
		view, err := eng.ComputeView(req, res.Doc)
		if err != nil {
			return err
		}
		unparse := measure(func() {
			var sb strings.Builder
			if err := view.WriteXML(&sb, dom.WriteOptions{}); err != nil {
				panic(err)
			}
		})
		total := measure(func() {
			r2, err := xmlparse.Parse(c.src, xmlparse.Options{Loader: c.dtds})
			if err != nil {
				panic(err)
			}
			v, err := eng.ComputeView(req, r2.Doc)
			if err != nil {
				panic(err)
			}
			var sb strings.Builder
			if err := v.WriteXML(&sb, dom.WriteOptions{}); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%-18s %-10s %-10s %-10s %-10s %-10s\n", c.name, parse, label, prune, unparse, total)
	}
	fmt.Println("(prune = the visibility mask ComputeView builds; total = full on-line cycle)")
	return nil
}

// E7 — conflict-resolution policies on a crafted conflicting set.
func expConflict() error {
	doc, _ := labexample.Parse()
	dir := labexample.Directory()
	// Two equally specific subjects for Tom with opposite signs on the
	// same object.
	tuples := []string{
		`<<Foreign,*,*>,CSlab.xml:/laboratory/project,read,-,R>`,
		`<<Public,*,*.it>,CSlab.xml:/laboratory/project,read,+,R>`,
	}
	fmt.Println("conflicting authorizations (subjects incomparable for Tom):")
	for _, t := range tuples {
		fmt.Println("  " + t)
	}
	fmt.Printf("%-28s %-8s %-8s\n", "conflict rule", "projects", "papers")
	for _, rule := range []core.ConflictRule{
		core.DenialsTakePrecedence,
		core.PermissionsTakePrecedence,
		core.NothingTakesPrecedence,
		core.MajorityTakesPrecedence,
	} {
		store := authz.NewStore()
		for _, t := range tuples {
			if err := store.Add(authz.InstanceLevel, authz.MustParse(t)); err != nil {
				return err
			}
		}
		eng := core.NewEngine(dir, store)
		eng.Default = core.Policy{Conflict: rule}
		req := core.Request{Requester: labexample.Tom, URI: labexample.DocURI, DTDURI: labexample.DTDURI}
		view, err := eng.ComputeView(req, doc)
		if err != nil {
			return err
		}
		projects := strings.Count(view.XMLIndent(" "), "<project")
		papers := strings.Count(view.XMLIndent(" "), "<paper")
		fmt.Printf("%-28s %-8d %-8d\n", rule, projects, papers)
	}
	fmt.Println("(most-specific-subject is applied first in every case, as in the paper)")
	return nil
}

// E8 — ASH partial-order evaluation cost.
func expSubjects() error {
	fmt.Printf("%-8s %-8s %-14s %-16s\n", "users", "groups", "Leq ns/op", "MostSpecific(16)")
	for _, pc := range []workload.PopConfig{
		{Users: 50, Groups: 10},
		{Users: 500, Groups: 50},
		{Users: 5000, Groups: 200},
	} {
		dir := workload.GenDirectory(pc)
		h := subjects.Hierarchy{Dir: dir}
		a := subjects.MustNewSubject("u1", "10.1.2.3", "h1.dom1.org")
		b := subjects.MustNewSubject("g1", "10.1.*", "*.dom1.org")
		leq := measure(func() {
			for i := 0; i < 100; i++ {
				h.Leq(a, b)
			}
		}) / 100
		// Most-specific filtering over 16 generated subjects.
		cfg := workload.AuthConfig{N: 16, Pop: pc, Seed: 11}
		inst, schema := workload.GenAuths(cfg)
		all := append(inst, schema...)
		ms := measure(func() {
			subjects.MostSpecific(h, all, func(x *authz.Authorization) subjects.Subject { return x.Subject })
		})
		fmt.Printf("%-8d %-8d %-14s %-16s\n", pc.Users, pc.Groups, leq, ms)
	}
	return nil
}

// E9 — the Example 1 path expressions, compiled and evaluated.
func expXPath() error {
	doc, _ := labexample.Parse()
	exprs := []string{
		`/laboratory/project`,
		`/laboratory//paper[./@category="private"]`,
		`/laboratory//paper[./@category="public"]`,
		`//project[./@type="internal"]`,
		`//project[./@type="public"]/manager`,
		`/laboratory//flname`,
		`//fund/ancestor::project`,
		`/laboratory/project[1]`,
	}
	fmt.Printf("%-48s %-6s %-12s\n", "expression", "nodes", "eval")
	for _, e := range exprs {
		p, err := xpath.Compile(e)
		if err != nil {
			return err
		}
		nodes, err := p.SelectDoc(doc)
		if err != nil {
			return err
		}
		d := measure(func() {
			for i := 0; i < 50; i++ {
				if _, err := p.SelectDoc(doc); err != nil {
					panic(err)
				}
			}
		}) / 50
		fmt.Printf("%-48s %-6d %-12s\n", e, len(nodes), d)
	}
	return nil
}

// mkLabSite assembles the paper's example site for the server-side
// experiments (cache ablation, stage breakdown).
func mkLabSite() (*server.Site, error) {
	site := server.NewSite()
	site.Directory = labexample.Directory()
	site.Engine.Hierarchy.Dir = site.Directory
	if err := site.Docs.AddDTD(labexample.DTDURI, labexample.DTDSource); err != nil {
		return nil, err
	}
	if err := site.Docs.AddDocument(labexample.DocURI, labexample.DocSource); err != nil {
		return nil, err
	}
	for i, tuple := range labexample.AuthTuples {
		level := authz.InstanceLevel
		if i == 0 {
			level = authz.SchemaLevel
		}
		if err := site.Auths.Add(level, authz.MustParse(tuple)); err != nil {
			return nil, err
		}
	}
	return site, nil
}

// expCache — extension ablation: the server's per-requester view cache
// against recomputing every request.
func expCache() error {
	plain, err := mkLabSite()
	if err != nil {
		return err
	}
	cached, err := mkLabSite()
	if err != nil {
		return err
	}
	cached.EnableViewCache(64)
	noCache := measure(func() {
		if _, err := plain.Process(labexample.Tom, labexample.DocURI); err != nil {
			panic(err)
		}
	})
	withCache := measure(func() {
		if _, err := cached.Process(labexample.Tom, labexample.DocURI); err != nil {
			panic(err)
		}
	})
	hits, misses := cached.CacheStats()
	fmt.Printf("%-22s %-12s\n", "mode", "per request")
	fmt.Printf("%-22s %-12s\n", "recompute", noCache)
	fmt.Printf("%-22s %-12s (x%.0f; %d hits / %d misses)\n",
		"view cache", withCache, float64(noCache)/float64(withCache), hits, misses)
	fmt.Println("(cache keys: requester triple + document, invalidated by store generations)")
	return nil
}

// expStages — the observability subsystem: drive the full processor in
// fully on-line mode (parse-per-request + view validation, so every
// read-cycle stage runs) through the site's HTTP handler and print the
// per-stage timing breakdown from the site's metric registry — the
// histograms GET /metrics exposes, fed from each request's cost card at
// completion exactly as in the daemon.
func expStages() error {
	site, err := mkLabSite()
	if err != nil {
		return err
	}
	site.ParsePerRequest = true
	site.ValidateViews = true
	clients := []struct{ user, ip, host string }{
		{labexample.Tom.User, labexample.Tom.IP, labexample.Tom.Host},
		{"Sam", "130.89.56.8", "adminhost.lab.com"},
		{"", "200.1.2.3", "outside.example.com"}, // anonymous
	}
	for _, c := range clients {
		if c.user != "" {
			if err := site.Users.Set(c.user, "pw"); err != nil {
				return err
			}
		}
		site.Resolver.(*server.StaticResolver).Add(c.ip, c.host)
	}
	h := site.Handler()
	n := 300
	if quick {
		n = 60
	}
	for i := 0; i < n; i++ {
		c := clients[i%len(clients)]
		req := httptest.NewRequest(http.MethodGet, "/docs/"+labexample.DocURI, nil)
		req.RemoteAddr = c.ip + ":40000"
		if c.user != "" {
			req.SetBasicAuth(c.user, "pw")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("GET as %q: HTTP %d: %s", c.user, w.Code, w.Body.String())
		}
	}
	snap := site.Metrics().Snapshot()
	stage := snap.Metric("xmlsec_stage_duration_seconds")
	if stage == nil {
		return fmt.Errorf("stage histograms missing from the registry")
	}
	fmt.Printf("%d fully on-line GETs of %s; per-stage latency from the metric registry:\n\n",
		n, labexample.DocURI)
	fmt.Printf("%-10s %-8s %-12s %-12s %-12s %-12s\n", "stage", "count", "total", "mean", "p50", "p95")
	var cycle time.Duration
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		s := stage.Find("stage", st.String())
		if s == nil || s.Histogram == nil || s.Histogram.Count == 0 {
			continue // a write-path stage
		}
		h := s.Histogram
		mean := time.Duration(h.Mean() * float64(time.Second))
		cycle += mean
		fmt.Printf("%-10s %-8d %-12s %-12s %-12s %-12s\n", st, h.Count,
			time.Duration(h.Sum*float64(time.Second)).Round(time.Microsecond),
			mean.Round(time.Microsecond),
			time.Duration(h.Quantile(0.5)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)*float64(time.Second)).Round(time.Microsecond))
	}
	fmt.Printf("\nsum of stage means: %s per request (quantiles are bucket-interpolated;\n", cycle.Round(time.Microsecond))
	fmt.Println(" the same histograms back the daemon's GET /metrics and /statz endpoints)")
	return nil
}

// allocsPerOp counts fn's heap allocations and bytes per call over a
// fixed loop: allocations are deterministic per code path, so one
// counted loop suffices where timings need interleaved batches.
func allocsPerOp(fn func() error) (bytesOp, allocs int64, err error) {
	const ops = 512
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < ops && err == nil; i++ {
		err = fn()
	}
	runtime.ReadMemStats(&after)
	return int64((after.TotalAlloc - before.TotalAlloc) / ops), int64((after.Mallocs - before.Mallocs) / ops), err
}

// writeJSON writes an experiment's machine-readable results to the
// -json file, when one was given.
func writeJSON(results any) error {
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err == nil {
		err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
	}
	if err == nil {
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return err
}

func indentBlock(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
