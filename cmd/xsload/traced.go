package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/update"
	"xmlsec/internal/wal"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

// tracedRequests bounds the traced run's replay; the run also stops at
// its time budget.
const tracedRequests = 20000

// span is one traced interval. Times are nanoseconds since the traced
// run began. A request's root span (parent -1) is named site.<op> and
// covers the Site entry point; its children repeat layers of that
// request through their public functions after the entry point returns,
// on the same inputs, so they follow their parent in time.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Request: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id]
	sp.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(sp.End - sp.Start)
}

// spanCost measures the tracer's own cost per empty span.
func spanCost() float64 {
	const n = 100000
	tr := tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("empty", -1, i))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

type acc struct {
	calls int
	total time.Duration
}

func (a acc) us() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.total) / float64(a.calls) / float64(time.Microsecond)
}

// tracedRun replays a workload's request stream in-process, one request
// at a time, through the Site entry points, and repeats each layer a
// request used through that layer's public function. These calls are
// the traced run's whole dependency on the program; README.md lists
// them, so a change to one of them is visibly a change to the
// benchmark.
type tracedRun struct {
	st      *server.Site
	s       *site
	ci      *subjects.ClassIndex // the benchmark's own, fed the site's inputs
	log     *wal.Log             // the benchmark's own, under SyncAlways
	tr      tracer
	paths   map[string][]*xpath.Path     // each document's rule paths
	gens    map[string]*server.StoredDoc // the generation last selected over
	queried map[*core.View]bool

	layer     map[string]*acc
	requests  int
	failed    int
	firstFail string
	mismatch  error // first disagreement between a repeated layer and the site

	cacheHits, cacheMisses uint64
	aiHits, aiMisses       uint64
	aiFills                uint64
	memoHits               int
	labelAuths             int
	nodes, kept            int
	serialBytes            int
	selects, arenaSelects  int
	coldQueries            int
	resultNodes            int
	targets, copied        int
	parseBytes             int
	walBytes, fsyncs       uint64
}

func (t *tracedRun) add(name string, d time.Duration) {
	a := t.layer[name]
	if a == nil {
		a = &acc{}
		t.layer[name] = a
	}
	a.calls++
	a.total += d
}

// timed runs fn as a child span of parent.
func (t *tracedRun) timed(name string, parent, req int, fn func()) {
	id := t.tr.begin(name, parent, req)
	fn()
	t.add(name, t.tr.end(id))
}

func (t *tracedRun) disagree(format string, args ...any) {
	if t.mismatch == nil {
		t.mismatch = fmt.Errorf(format, args...)
	}
}

// runTraced loads the generated site in-process with the daemon's cache
// size and a fresh SyncAlways WAL, and replays the workload's request
// stream until tracedRequests or budget. The node-set index is warmed
// first, as the daemon's own warm-up phase leaves it; the view cache
// starts cold, so every workload exercises the miss path at least for
// its first touch of each view.
func runTraced(cfg *config, w *workload, s *site, siteDir, dataDir string, budget time.Duration) (*outcome, error) {
	st, err := server.LoadSiteDir(siteDir)
	if err != nil {
		return nil, err
	}
	st.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	st.EnableViewCache(viewCacheSize)
	if err := st.EnableDurability(filepath.Join(dataDir, "site"), server.DurabilityOptions{Sync: wal.SyncAlways}); err != nil {
		return nil, err
	}
	// Both WALs live in the run directory, which is removed afterwards.
	defer func() { _ = st.CloseDurability() }()
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dataDir, "bench"), Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer func() { _ = log.Close() }()
	t := &tracedRun{
		st: st, s: s, ci: subjects.NewClassIndex(), log: log,
		paths: map[string][]*xpath.Path{}, gens: map[string]*server.StoredDoc{},
		queried: map[*core.View]bool{}, layer: map[string]*acc{},
	}
	for _, uri := range st.Docs.URIs() {
		sd := st.Docs.Doc(uri)
		st.Engine.WarmAuthIndex(sd.Doc, uri, sd.DTDURI, 1)
		for _, a := range st.Auths.ForDocument(uri) {
			pe := a.Object.PathExpr
			if pe == "" {
				continue
			}
			if !strings.HasPrefix(pe, "/") {
				pe = "//" + pe
			}
			p, err := xpath.Compile(pe)
			if err != nil {
				return nil, err
			}
			t.paths[uri] = append(t.paths[uri], p)
		}
	}

	reqs := genRequests(newRand(cfg.seed, 2), s, w, tracedRequests)
	var samples []sample
	t.tr.t0 = time.Now()
	deadline := t.tr.t0.Add(budget)
	for i := range reqs {
		if time.Now().After(deadline) {
			break
		}
		body := t.replay(i, &reqs[i])
		if w.readOnly() && i%sampleEvery == 0 && body != nil {
			samples = append(samples, sample{req: &reqs[i], body: body})
		}
	}

	out := &outcome{workload: w.name, attempted: t.requests, failed: t.failed}
	if t.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d requests failed; first: %s", t.failed, t.requests, t.firstFail))
	}
	if t.mismatch != nil {
		out.problems = append(out.problems, t.mismatch.Error())
	}
	if len(samples) > 0 {
		o, err := newOracle(siteDir)
		if err != nil {
			return nil, err
		}
		n, err := o.check(s, samples)
		if err != nil {
			out.problems = append(out.problems, err.Error())
		}
		out.add("trace.oracle_checked", float64(n), "count", "")
	}
	t.metrics(out)
	f, err := os.Create(filepath.Join(cfg.out, w.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	err = json.NewEncoder(f).Encode(t.tr.spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// replay sends one request through its Site entry point, then repeats
// the layers it used as child spans. It returns the response body of a
// read or query, for the oracle.
func (t *tracedRun) replay(i int, r *request) []byte {
	ctx := context.Background()
	uri := t.s.docs[r.doc].uri
	rq := t.st.RequesterFor(t.s.users[r.user].name, peerIP)
	pre := t.st.Docs.Doc(uri)
	h0, m0 := t.st.CacheStats()
	ai0 := t.st.Engine.AuthIndex().Stats()
	w0 := t.st.WALStats()

	var (
		res  *server.ProcessResult
		qdoc *dom.Document
		err  error
	)
	name := "site." + opNames[r.op]
	root := t.tr.begin(name, -1, i)
	switch r.op {
	case opRead:
		res, err = t.st.ProcessContext(ctx, rq, uri)
	case opQuery:
		qdoc, err = t.st.QueryDocContext(ctx, rq, uri, r.arg)
	default:
		err = t.st.ApplyUpdate(ctx, rq, uri, r.arg)
	}
	d := t.tr.end(root)
	t.add(name, d)
	t.add("site", d)
	t.requests++
	if err != nil {
		t.failed++
		if t.firstFail == "" {
			t.firstFail = fmt.Sprintf("%s %s %s: %v", opNames[r.op], uri, r.arg, err)
		}
		return nil
	}
	h1, m1 := t.st.CacheStats()
	ai1 := t.st.Engine.AuthIndex().Stats()
	w1 := t.st.WALStats()
	t.cacheHits += h1 - h0
	t.cacheMisses += m1 - m0
	t.aiHits += ai1.Hits - ai0.Hits
	t.aiMisses += ai1.Misses - ai0.Misses
	t.aiFills += ai1.Fills - ai0.Fills
	miss := m1 > m0

	t.timed("class.resolve", root, i, func() {
		_, outcome, err := t.ci.ResolveWithOutcome(t.st.Engine.Hierarchy, rq,
			t.st.Auths.Generation(), t.st.Directory.Generation(), t.st.Auths.SubjectUniverse)
		if err != nil {
			t.disagree("class.resolve for %s: %v", rq.User, err)
		}
		if outcome.MemoHit {
			t.memoHits++
		}
	})
	var body []byte
	req := core.Request{Requester: rq, URI: uri, DTDURI: pre.DTDURI}
	switch r.op {
	case opRead:
		body = []byte(res.XML)
		if miss {
			t.replayView(root, i, req, pre, res.XML)
		}
	case opQuery:
		body = t.replayQuery(root, i, req, pre, r.arg, qdoc, miss)
	default:
		t.replayUpdate(root, i, req, pre, r.arg, w1.AppendedBytes-w0.AppendedBytes)
		t.walBytes += w1.AppendedBytes - w0.AppendedBytes
		t.fsyncs += w1.Fsyncs - w0.Fsyncs
	}
	t.replaySelects(root, i, uri)
	return body
}

// replayLabelMask repeats labeling and the transformation sweep.
func (t *tracedRun) replayLabelMask(root, i int, req core.Request, sd *server.StoredDoc) (*core.Labeling, dom.Bitmask) {
	var lb *core.Labeling
	var mask dom.Bitmask
	t.timed("label", root, i, func() {
		var st core.Stats
		var err error
		lb, st, err = t.st.Engine.LabelCtx(context.Background(), req, sd.Doc)
		if err != nil {
			t.disagree("label %s: %v", req.URI, err)
			return
		}
		t.labelAuths += st.AuthsInstance + st.AuthsSchema
		t.nodes += st.Nodes
	})
	if lb == nil {
		return nil, nil
	}
	t.timed("mask", root, i, func() {
		var kept int
		mask, kept = core.Visibility(sd.Doc, lb, t.st.Engine.PolicyFor(req.URI))
		t.kept += kept
	})
	return lb, mask
}

// replayView repeats a view miss — label, mask, serialize — and checks
// that it reproduces the bytes the site served.
func (t *tracedRun) replayView(root, i int, req core.Request, sd *server.StoredDoc, served string) {
	lb, mask := t.replayLabelMask(root, i, req, sd)
	if lb == nil {
		return
	}
	var b bytes.Buffer
	t.timed("serialize", root, i, func() {
		v := &core.View{Doc: sd.Doc, Mask: mask, Labeling: lb}
		if err := v.WriteXML(&b, dom.WriteOptions{Indent: "  ", OmitDocType: sd.DTDURI == ""}); err != nil {
			t.disagree("serialize %s: %v", req.URI, err)
		}
	})
	t.serialBytes += b.Len()
	if b.String() != served {
		t.disagree("repeated view of %s for %s differs from the served one", req.URI, req.Requester.User)
	}
}

// replayQuery repeats a query: compilation, the view miss if the site
// missed, and the evaluation — cold when it is the first query on that
// view object (the view's tree is materialized then), warm otherwise.
func (t *tracedRun) replayQuery(root, i int, req core.Request, sd *server.StoredDoc, expr string, served *dom.Document, miss bool) []byte {
	t.timed("xpath.compile", root, i, func() {
		if _, err := xpath.Compile(expr); err != nil {
			t.disagree("compile %q: %v", expr, err)
		}
	})
	// The view the site's query ran on is now the cached one.
	pres, err := t.st.ProcessContext(context.Background(), req.Requester, req.URI)
	if err != nil {
		t.disagree("view of %s after query: %v", req.URI, err)
		return nil
	}
	if miss {
		t.replayView(root, i, req, sd, pres.XML)
	}
	v := pres.View
	name := "query.warm"
	if !t.queried[v] {
		t.queried[v] = true
		t.coldQueries++
		name = "query.cold"
		v = &core.View{Doc: v.Doc, Mask: v.Mask, Labeling: v.Labeling, Stats: v.Stats}
	}
	var got *dom.Document
	t.timed(name, root, i, func() {
		got, err = v.QueryResultCtx(context.Background(), expr)
	})
	if err != nil {
		t.disagree("query %q: %v", expr, err)
		return nil
	}
	if root := got.DocumentElement(); root != nil {
		t.resultNodes += len(root.Children)
	}
	var want, have bytes.Buffer
	errs := errors.Join(served.Write(&want, dom.WriteOptions{Indent: "  "}), got.Write(&have, dom.WriteOptions{Indent: "  "}))
	if errs != nil || !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.disagree("repeated query %q on %s differs from the served result", expr, req.URI)
	}
	return want.Bytes()
}

// replayUpdate repeats an update on its pre-state: script parse, read
// view, write labeling, target resolution, copy-on-write apply, the
// parse of the post-update source, and a WAL append of the size the
// site's own log grew by. The post-update source must be the one the
// site committed.
func (t *tracedRun) replayUpdate(root, i int, req core.Request, pre *server.StoredDoc, src string, walBytes uint64) {
	ctx := context.Background()
	var script *update.Script
	var err error
	t.timed("update.parse", root, i, func() { script, err = update.ParseScript(src) })
	if err != nil {
		t.disagree("parse script %q: %v", src, err)
		return
	}
	_, mask := t.replayLabelMask(root, i, req, pre)
	wreq := req
	wreq.Action = server.WriteAction
	var wlb *core.Labeling
	t.timed("label", root, i, func() {
		var st core.Stats
		wlb, st, err = t.st.Engine.LabelCtx(ctx, wreq, pre.Doc)
		t.labelAuths += st.AuthsInstance + st.AuthsSchema
		t.nodes += st.Nodes
	})
	if err != nil || mask == nil {
		t.disagree("labeling %s for update: %v", req.URI, err)
		return
	}
	pol := t.st.Engine.PolicyFor(req.URI)
	var res *update.Resolution
	var report []update.OpError
	t.timed("update.resolve", root, i, func() {
		res, report = update.Resolve(ctx, pre.Doc, script,
			func(n int32) bool { return mask.VisibleIdx(n) },
			func(n int32) bool { return pol.Grants(wlb.FinalAt(int(n))) })
	})
	if report != nil {
		t.disagree("repeated resolve of %q refused what the site committed: %v", src, report)
		return
	}
	for _, ts := range res.Targets {
		t.targets += len(ts)
	}
	var out *dom.Document
	var copied int
	t.timed("update.apply", root, i, func() { out, copied, err = update.Apply(pre.Doc, script, res.Targets) })
	if err != nil {
		t.disagree("apply %q: %v", src, err)
		return
	}
	t.copied += copied
	post := out.String()
	t.parseBytes += len(post)
	t.timed("parse", root, i, func() {
		_, err = xmlparse.Parse(post, xmlparse.Options{Loader: xmlparse.MapLoader{"bench.dtd": benchDTD}, ApplyDefaults: true})
	})
	if err != nil {
		t.disagree("parse post-update %s: %v", req.URI, err)
	}
	if cur := t.st.Docs.Doc(req.URI); cur == nil || cur.Source != post {
		t.disagree("repeated update %q of %s differs from the committed document", src, req.URI)
	}
	payload := make([]byte, walBytes)
	t.timed("wal.append", root, i, func() {
		if _, err := t.log.Append(payload); err != nil {
			t.disagree("wal append: %v", err)
		}
	})
}

// replaySelects evaluates every rule path of the document once per new
// document generation: the XPath work a node-set index fill does.
func (t *tracedRun) replaySelects(root, i int, uri string) {
	sd := t.st.Docs.Doc(uri)
	if t.gens[uri] == sd {
		return
	}
	t.gens[uri] = sd
	for _, p := range t.paths[uri] {
		t.timed("xpath.select", root, i, func() {
			_, viaArena, err := p.SelectIndexes(sd.Doc)
			if err != nil {
				t.disagree("select %s on %s: %v", p.Source(), uri, err)
			}
			t.selects++
			if viaArena {
				t.arenaSelects++
			}
		})
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *tracedRun) metrics(out *outcome) {
	us := func(name string) float64 {
		if a := t.layer[name]; a != nil {
			return a.us()
		}
		return 0
	}
	total := func(names ...string) float64 {
		var sum time.Duration
		for _, n := range names {
			if a := t.layer[n]; a != nil {
				sum += a.total
			}
		}
		return float64(sum)
	}
	calls := func(name string) float64 {
		if a := t.layer[name]; a != nil {
			return float64(a.calls)
		}
		return 0
	}
	reqs := float64(t.requests)
	updates := calls("site.update")
	labels := calls("label")
	site := total("site")

	out.add("site.us", us("site"), "us", fmt.Sprintf("n=%d", t.requests))
	for _, o := range opNames {
		if n := calls("site." + o); n > 0 {
			out.add("site."+o+"_us", us("site."+o), "us", fmt.Sprintf("n=%d", int(n)))
		}
	}
	out.add("viewcache.hit_ratio", ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "ratio", "")
	out.add("class.resolve_us", us("class.resolve"), "us", "")
	out.add("class.memo_hit_ratio", ratio(float64(t.memoHits), calls("class.resolve")), "ratio", "")
	out.add("label.us", us("label"), "us", fmt.Sprintf("n=%d", int(labels)))
	out.add("label.calls_per_req", ratio(labels, reqs), "count", "")
	out.add("label.auths_per_call", ratio(float64(t.labelAuths), labels), "count", "")
	out.add("authindex.fills_per_req", ratio(float64(t.aiFills), reqs), "count", "")
	out.add("authindex.hit_ratio", ratio(float64(t.aiHits), float64(t.aiHits+t.aiMisses)), "ratio", "")
	out.add("xpath.select_us", us("xpath.select"), "us", fmt.Sprintf("n=%d", t.selects))
	out.add("xpath.arena_frac", ratio(float64(t.arenaSelects), float64(t.selects)), "ratio", "")
	out.add("mask.us", us("mask"), "us", "")
	out.add("mask.kept_frac", ratio(float64(t.kept), float64(t.nodes)), "ratio", "")
	out.add("serialize.us", us("serialize"), "us", "")
	out.add("serialize.kb", ratio(float64(t.serialBytes)/1024, calls("serialize")), "KB", "")
	queries := calls("site.query")
	if queries > 0 {
		out.add("xpath.compile_us", us("xpath.compile"), "us", "")
		out.add("query.cold_us", us("query.cold"), "us", fmt.Sprintf("n=%d", int(calls("query.cold"))))
		out.add("query.warm_us", us("query.warm"), "us", fmt.Sprintf("n=%d", int(calls("query.warm"))))
	}
	out.add("query.cold_frac", ratio(float64(t.coldQueries), queries), "ratio", "")
	out.add("query.result_nodes", ratio(float64(t.resultNodes), queries), "count", "")
	out.add("query.share", ratio(total("xpath.compile", "query.cold", "query.warm"), site), "ratio", "")
	if updates > 0 {
		out.add("update.parse_us", us("update.parse"), "us", "")
		out.add("update.resolve_us", us("update.resolve"), "us", "")
		out.add("update.apply_us", us("update.apply"), "us", "")
		out.add("parse.us", us("parse"), "us", "")
		out.add("wal.append_us", us("wal.append"), "us", "")
	}
	out.add("update.targets", ratio(float64(t.targets), updates), "count", "")
	out.add("update.nodes_copied", ratio(float64(t.copied), updates), "count", "")
	out.add("update.share", ratio(total("update.parse", "update.resolve", "update.apply"), site), "ratio", "")
	out.add("parse.kb", ratio(float64(t.parseBytes)/1024, updates), "KB", "")
	out.add("parse.share", ratio(total("parse"), site), "ratio", "")
	out.add("wal.bytes_per_update", ratio(float64(t.walBytes), updates), "B", "")
	out.add("wal.fsyncs_per_update", ratio(float64(t.fsyncs), updates), "count", "")
	out.add("wal.share", ratio(total("wal.append"), site), "ratio", "")
	out.add("trace.span_ns", spanCost(), "ns", "")
}
