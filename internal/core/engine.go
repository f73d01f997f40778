package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
)

// Engine evaluates requests against an authorization store, producing
// per-requester document views. It is safe for concurrent use.
type Engine struct {
	// Hierarchy resolves the ASH partial order (group memberships and
	// location patterns).
	Hierarchy subjects.Hierarchy
	// Store holds the access authorizations.
	Store *authz.Store
	// Default is the policy for documents with no specific policy.
	Default Policy

	mu       sync.RWMutex
	policies map[string]Policy // per-document URI
	polGen   uint64            // bumped by SetPolicy/ClearPolicies
	stages   StageObserver
	// authIndex caches per-document authorization node-sets so
	// steady-state labeling does zero XPath work; nil disables caching
	// (the differential-testing oracle). NewEngine installs one.
	authIndex *AuthIndex
}

// StageObserver receives the duration of each named stage of the
// processor's execution cycle. ComputeView reports "label" and "prune";
// callers running the surrounding stages (parse, validate, unparse)
// report those themselves. Implementations must be safe for concurrent
// use.
type StageObserver interface {
	ObserveStage(stage string, d time.Duration)
}

// SetStageObserver installs (or, with nil, removes) the engine's stage
// observer. Safe to call concurrently with ComputeView.
func (e *Engine) SetStageObserver(o StageObserver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stages = o
}

func (e *Engine) stageObserver() StageObserver {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stages
}

// NewEngine builds an engine over a directory and a store with the
// paper's default policy.
func NewEngine(dir *subjects.Directory, store *authz.Store) *Engine {
	return &Engine{
		Hierarchy: subjects.Hierarchy{Dir: dir},
		Store:     store,
		Default:   DefaultPolicy,
		policies:  make(map[string]Policy),
		authIndex: NewAuthIndex(),
	}
}

// AuthIndex returns the engine's node-set index, or nil when disabled.
func (e *Engine) AuthIndex() *AuthIndex {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.authIndex
}

// SetAuthIndex installs (or, with nil, disables) the engine's node-set
// index. With the index disabled every request evaluates every
// applicable path expression — the uncached oracle the differential
// tests compare against. Safe to call concurrently with Label.
func (e *Engine) SetAuthIndex(x *AuthIndex) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.authIndex = x
}

// WarmAuthIndex pre-fills the node-set index for doc with every
// authorization attached to docURI (instance level) and dtdURI (schema
// level), evaluating up to workers paths in parallel. A no-op when the
// index is disabled. The warm-up covers all subjects: node-sets do not
// depend on the requester, so the first request of every requester hits.
func (e *Engine) WarmAuthIndex(doc *dom.Document, docURI, dtdURI string, workers int) {
	idx := e.AuthIndex()
	if idx == nil || e.Store == nil {
		return
	}
	gen := e.Store.Generation()
	auths := e.Store.ForDocument(docURI)
	if dtdURI != "" {
		auths = append(auths, e.Store.ForSchema(dtdURI)...)
	}
	idx.Warm(doc, gen, auths, workers)
}

// SetPolicy installs a document-specific policy (the paper allows one
// policy per document, possibly different across a server).
func (e *Engine) SetPolicy(uri string, p Policy) {
	e.mu.Lock()
	idx := e.authIndex
	e.policies[uri] = p
	e.polGen++
	e.mu.Unlock()
	// Conservatively drop cached node-sets: the sets themselves depend
	// only on (path, document), but a policy change is rare and flushing
	// keeps the invalidation story uniform with store mutations.
	if idx != nil {
		idx.InvalidateAll()
	}
}

// Policies returns a copy of the per-document policies installed with
// SetPolicy (the engine-wide Default is not included). Durability
// snapshots serialize site state through it.
func (e *Engine) Policies() map[string]Policy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]Policy, len(e.policies))
	for uri, p := range e.policies {
		out[uri] = p
	}
	return out
}

// ClearPolicies removes every per-document policy (recovery replaces
// them with a snapshot's), flushing cached node-sets like SetPolicy.
func (e *Engine) ClearPolicies() {
	e.mu.Lock()
	idx := e.authIndex
	e.policies = make(map[string]Policy)
	e.polGen++
	e.mu.Unlock()
	if idx != nil {
		idx.InvalidateAll()
	}
}

// PolicyGeneration returns a counter that changes whenever the
// per-document policies change. A policy change (say, flipping a
// document from denials-take-precedence to permissions-take-precedence)
// alters views without touching the authorization or document stores,
// so view caches must key on this generation too; before it existed, a
// SetPolicy while serving could leave stale views cached indefinitely.
func (e *Engine) PolicyGeneration() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.polGen
}

// PolicyFor returns the policy in force for a document URI.
func (e *Engine) PolicyFor(uri string) Policy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p, ok := e.policies[uri]; ok {
		return p
	}
	return e.Default
}

// Request identifies one access request: who asks, for what document,
// and under which DTD the document is an instance.
type Request struct {
	// Requester is the authenticated origin of the request.
	Requester subjects.Requester
	// URI is the requested document's URI (the key for instance-level
	// authorizations and the document policy).
	URI string
	// DTDURI is the URI of the document's DTD, the key for
	// schema-level authorizations; empty if the document has none.
	DTDURI string
	// Action is the requested action; empty means read.
	Action string
	// At is the evaluation instant for authorizations with validity
	// windows; the zero value means now.
	At time.Time
}

func (r Request) action() string {
	if r.Action == "" {
		return authz.ReadAction
	}
	return r.Action
}

// Stats summarizes one view computation.
type Stats struct {
	// Nodes is the number of elements and attributes in the document.
	Nodes int
	// Plus, Minus, Eps count the final labels.
	Plus, Minus, Eps int
	// Kept is the number of elements and attributes in the view.
	Kept int
	// AuthsInstance and AuthsSchema count the authorizations applicable
	// to the requester at each level.
	AuthsInstance, AuthsSchema int
}

// View is the outcome of compute-view: the document a requester is
// entitled to see, plus the labeling that produced it. The view is
// virtual: Doc is the shared read-only original and Mask carries the
// visibility decision per node, so nothing is copied and the original
// nodes are the view nodes. Consumers should go through Empty, Visible,
// OriginOf, WriteXML and Materialize rather than reading the fields.
type View struct {
	// Doc is the shared original document the view is over; it is
	// never mutated.
	Doc *dom.Document
	// Mask is the visibility bitmask over Doc's node indexes.
	Mask dom.Bitmask
	// Labeling holds the final labels, keyed by Doc's node indexes
	// (invisible nodes remain queryable).
	Labeling *Labeling
	// Stats summarizes the computation.
	Stats Stats
}

// Empty reports whether the view contains nothing at all — the
// requester's view of a fully protected document, which the server
// must treat as nonexistent.
func (v *View) Empty() bool {
	root := v.Doc.DocumentElement()
	return root == nil || !v.Mask.Visible(root)
}

// Visible reports whether node n of v.Doc is part of the view.
func (v *View) Visible(n *dom.Node) bool { return v.Mask.Visible(n) }

// OriginOf maps a view node back to the node of the original document
// it represents, or nil for nodes outside the view. The view nodes are
// the original nodes, so this is the identity on visible nodes — the
// provenance that write-through-views needs comes for free.
func (v *View) OriginOf(n *dom.Node) *dom.Node {
	if v.Mask.Visible(n) {
		return n
	}
	return nil
}

// WriteXML unparses the view to w: serialization through the mask,
// with no materialized copy. Any Mask in opts is overridden.
func (v *View) WriteXML(w io.Writer, opts dom.WriteOptions) error {
	opts.Mask = v.Mask
	return v.Doc.Write(w, opts)
}

// XMLIndent returns the view pretty-printed with the given indent unit,
// without XML declaration, DOCTYPE, or trailing newline — the masked
// counterpart of dom.Document.StringIndent, convenient for tests and
// golden comparisons.
func (v *View) XMLIndent(indent string) string {
	var b strings.Builder
	_ = v.WriteXML(&b, dom.WriteOptions{Indent: indent, OmitDecl: true, OmitDocType: true})
	return strings.TrimRight(b.String(), "\n")
}

// Materialize returns the view as a standalone pruned document. Each
// call builds a fresh copy: neither serving nor queries need one
// (queries evaluate under the mask), only validation, the reference
// pipeline tests compare against and offline tools.
func (v *View) Materialize() *dom.Document {
	return v.Doc.CloneMasked(v.Mask)
}

// ComputeView runs the paper's compute-view algorithm (Figure 2): it
// gathers the authorizations applicable to the requester at instance
// and schema level, labels the document tree by recursive propagation,
// and computes the view. The input document is never modified.
//
// The view is virtual: the shared document is labeled in place (labels
// live in a dense per-request slice, not on the tree) and the
// transformation step produces a visibility mask instead of a pruned
// copy — set-at-a-time labeling with zero per-request tree allocation,
// the shape the paper's "fast on-line computation" claim (Section 6,
// E5) asks for. Labeling and masking sweep the document's arena.
//
// The document must have been renumbered (the parser does this) and is
// treated as immutable for the lifetime of the returned view.
func (e *Engine) ComputeView(req Request, doc *dom.Document) (*View, error) {
	return e.ComputeViewCtx(context.Background(), req, doc)
}

// ComputeViewCtx is ComputeView with per-request tracing: when ctx
// carries a trace (see internal/trace), the labeling and
// transformation steps are recorded as "label" and "prune" spans, with
// node-set-index effectiveness and label counts annotated on them. An
// untraced context adds no allocation and no lock to the cycle.
func (e *Engine) ComputeViewCtx(ctx context.Context, req Request, doc *dom.Document) (*View, error) {
	obs := e.stageObserver()
	lctx, sp := trace.StartSpan(ctx, "label")
	start := time.Now()
	lb, stats, err := e.labelCtx(lctx, req, doc)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.ObserveStage("label", time.Since(start))
	}
	if sp.Traced() {
		sp.Lazyf("%d nodes: %d+, %d-, %de (auths: %d instance, %d schema)",
			stats.Nodes, stats.Plus, stats.Minus, stats.Eps, stats.AuthsInstance, stats.AuthsSchema)
		sp.End()
	}
	pol := e.PolicyFor(req.URI)
	sp = trace.StartChild(ctx, "prune")
	start = time.Now()
	mask, kept := Visibility(doc, lb, pol)
	stats.Kept = kept
	if obs != nil {
		obs.ObserveStage("prune", time.Since(start))
	}
	if sp.Traced() {
		sp.Lazyf("kept %d of %d nodes", kept, stats.Nodes)
		sp.End()
	}
	if card := trace.CostFromContext(ctx); card != nil {
		card.NodesSwept += int64(stats.Nodes)
		card.NodesKept += int64(kept)
	}
	return &View{Doc: doc, Mask: mask, Labeling: lb, Stats: stats}, nil
}

// Label runs only the tree-labeling step on doc (in place with respect
// to labels; the tree is not modified), returning the labeling and
// statistics. Exposed separately so benchmarks and diagnostic tools can
// separate labeling cost from pruning cost.
func (e *Engine) Label(req Request, doc *dom.Document) (*Labeling, Stats, error) {
	return e.labelCtx(context.Background(), req, doc)
}

// LabelCtx is Label under a (possibly traced) context; node-set-index
// fills triggered by the labeling appear as child spans of the
// context's current span.
func (e *Engine) LabelCtx(ctx context.Context, req Request, doc *dom.Document) (*Labeling, Stats, error) {
	return e.labelCtx(ctx, req, doc)
}

func (e *Engine) labelCtx(ctx context.Context, req Request, doc *dom.Document) (*Labeling, Stats, error) {
	axml, adtd, err := e.applicable(req)
	if err != nil {
		return nil, Stats{}, err
	}
	pol := e.PolicyFor(req.URI)
	ar := doc.ReadArena()
	n := ar.Len()
	l := &labeler{
		h:     e.Hierarchy,
		rule:  pol.Conflict,
		byIdx: make([]*nodeAuths, n),
		out:   newLabeling(n),
	}
	// Set-at-a-time object evaluation: each authorization's path
	// expression runs once per request, not once per node — the heart of
	// the paper's "fast on-line computation" claim (E5 measures it
	// against the per-node alternative). With the node-set index enabled
	// the path runs once per (document, store generation) instead: the
	// cached dense index set is intersected with the per-request subject
	// filter already applied by applicable(), so the steady state does
	// zero XPath work. Either way collection stays in index space: the
	// arena knows each index's kind, so no tree node is touched.
	idx := e.AuthIndex()
	var gen uint64
	if idx != nil {
		gen = e.Store.Generation()
	}
	// idxHits/idxMisses summarize this request's node-set-index
	// effectiveness for its trace (the aggregate counters live on the
	// index itself); plain ints, so untraced requests pay nothing.
	sp := trace.SpanFromContext(ctx)
	var idxHits, idxMisses int
	collect := func(a *authz.Authorization, schema bool) error {
		var set []int32
		var err error
		if idx != nil {
			var hit bool
			set, hit, err = idx.lookup(ctx, doc, gen, a)
			if hit {
				idxHits++
			} else {
				idxMisses++
			}
		} else {
			set, err = a.SelectIndexesCtx(ctx, doc)
		}
		if err != nil {
			return fmt.Errorf("core: evaluating %s: %w", a, err)
		}
		for _, i := range set {
			l.addIdx(int(i), ar.Kind(i) == dom.AttributeNode, a, schema)
		}
		return nil
	}
	for _, a := range axml {
		if err := collect(a, false); err != nil {
			return nil, Stats{}, err
		}
	}
	for _, a := range adtd {
		if err := collect(a, true); err != nil {
			return nil, Stats{}, err
		}
	}
	if sp.Traced() && idx != nil {
		sp.Lazyf("authindex: %d hits, %d misses", idxHits, idxMisses)
	}
	root := ar.DocumentElement()
	if root < 0 {
		return l.out, Stats{}, nil
	}
	l.labelElementIdx(ar, root, nil)
	stats := Stats{
		Nodes:         ar.CountElemAttrs(),
		AuthsInstance: len(axml),
		AuthsSchema:   len(adtd),
	}
	// One pass over the dense labeling derives all three counts; the
	// preorder visit labels every element and attribute under the
	// document element, which is exactly what Nodes counts, so the
	// counts are consistent by construction.
	stats.Plus, stats.Minus, stats.Eps = l.out.Count()
	if card := trace.CostFromContext(ctx); card != nil {
		card.NodesLabeled += int64(stats.Nodes)
		card.AuthIndexHits += int64(idxHits)
		card.AuthIndexMisses += int64(idxMisses)
	}
	return l.out, stats, nil
}

// applicable computes the paper's Axml and Adtd: the stored
// authorizations whose subject covers the requester, whose action
// matches, and whose validity window (if any) contains the request
// instant (steps 1-2 of compute-view).
func (e *Engine) applicable(req Request) (axml, adtd []*authz.Authorization, err error) {
	at := req.At
	if at.IsZero() {
		at = time.Now()
	}
	for _, a := range e.Store.ForDocument(req.URI) {
		ok, err := e.Hierarchy.AppliesTo(a.Subject, req.Requester)
		if err != nil {
			return nil, nil, err
		}
		if ok && a.Action == req.action() && a.ActiveAt(at) {
			axml = append(axml, a)
		}
	}
	if req.DTDURI != "" {
		for _, a := range e.Store.ForSchema(req.DTDURI) {
			ok, err := e.Hierarchy.AppliesTo(a.Subject, req.Requester)
			if err != nil {
				return nil, nil, err
			}
			if ok && a.Action == req.action() && a.ActiveAt(at) {
				adtd = append(adtd, a)
			}
		}
	}
	return axml, adtd, nil
}

// nodeAuths collects, per node, the applicable authorizations by slot.
type nodeAuths struct {
	// instance[t] holds instance-level authorizations of type t.
	instance [4][]*authz.Authorization
	// dtdLocal and dtdRec hold schema-level authorizations (weak types
	// cannot occur at schema level).
	dtdLocal, dtdRec []*authz.Authorization
}

type labeler struct {
	h     subjects.Hierarchy
	rule  ConflictRule
	byIdx []*nodeAuths // node index → collected authorizations
	out   *Labeling
}

// addIdx records that authorization a protects the node at dense
// preorder index i. On attribute nodes the recursive types collapse
// into their local counterparts: an attribute is a leaf of the tree,
// so R/RW slots "are always null for an attribute" (Section 6.1) and a
// recursive authorization naming an attribute directly protects
// exactly that attribute.
func (l *labeler) addIdx(i int, isAttr bool, a *authz.Authorization, schema bool) {
	na := l.byIdx[i]
	if na == nil {
		na = &nodeAuths{}
		l.byIdx[i] = na
	}
	if schema {
		if a.Type.IsRecursive() && !isAttr {
			na.dtdRec = append(na.dtdRec, a)
		} else {
			na.dtdLocal = append(na.dtdLocal, a)
		}
		return
	}
	t := a.Type
	if isAttr {
		switch t {
		case authz.Recursive:
			t = authz.Local
		case authz.RecursiveWeak:
			t = authz.LocalWeak
		}
	}
	na.instance[t] = append(na.instance[t], a)
}

// signOf runs steps 1a-1c / 2a-2c of initial_label for one slot: filter
// the authorizations down to those with most specific subjects, then
// resolve residual conflicts with the document's conflict rule.
func (l *labeler) signOf(auths []*authz.Authorization) Sign {
	if len(auths) == 0 {
		return Epsilon
	}
	if len(auths) > 1 {
		auths = subjects.MostSpecific(l.h, auths, func(a *authz.Authorization) subjects.Subject {
			return a.Subject
		})
	}
	pos, neg := 0, 0
	for _, a := range auths {
		if a.Sign == authz.Permit {
			pos++
		} else {
			neg++
		}
	}
	return l.rule.resolve(pos, neg)
}

// initialLabelIdx computes the own 6-tuple of the node at dense
// preorder index i from the authorizations that name it (procedure
// initial_label of Figure 2).
func (l *labeler) initialLabelIdx(i int) *Label {
	lab := l.out.atIndex(i)
	if na := l.byIdx[i]; na != nil {
		lab.L = l.signOf(na.instance[authz.Local])
		lab.R = l.signOf(na.instance[authz.Recursive])
		lab.LW = l.signOf(na.instance[authz.LocalWeak])
		lab.RW = l.signOf(na.instance[authz.RecursiveWeak])
		lab.LD = l.signOf(na.dtdLocal)
		lab.RD = l.signOf(na.dtdRec)
	}
	return lab
}

// labelAttrIdx implements label(n,p) for the attribute node at dense
// preorder index i. Per Section 6.1 an attribute has no recursive
// slots, and Local authorizations on the parent element propagate to
// it. Within each priority channel the
// order is: the attribute's own sign, then the parent's local sign,
// then the recursive sign in force at the parent:
//
//	instance-strong:  L_n,  else L_p,  else R_p
//	schema:           LD_n, else LD_p, else RD_p
//	weak:             LW_n, else LW_p, else RW_p
//
// with the same blocking rule as elements (an attribute's own
// instance-level sign, strong or weak, stops instance propagation from
// the parent), and the final sign is first_def over the channels in
// that order — so the combined behaviour matches the element rule:
// instance (unless weak) beats schema beats weak, and more specific
// objects beat less specific ones.
//
// (The attribute case of Figure 2 is partly corrupted in the source we
// work from; this reconstruction follows the prose of Sections 5 and
// 6.1 and degenerates to the element rule's priorities in every case
// both define. DESIGN.md records the reconstruction.)
func (l *labeler) labelAttrIdx(i int, p *Label) {
	lab := l.initialLabelIdx(i)
	if lab.L == Epsilon && lab.LW == Epsilon {
		lab.L = FirstDef(p.L, p.R)
		lab.LW = FirstDef(p.LW, p.RW)
	}
	lab.LD = FirstDef(lab.LD, p.LD, p.RD)
	lab.Final = FirstDef(lab.L, lab.LD, lab.LW)
}

// labelElementIdx implements procedure label(n,p) for the element at
// arena index i under propagated parent label p (nil for the root
// element, which takes its own signs only; steps 4-6 of compute-view):
// n's recursive slots take their own value when the node carries a
// recursive authorization of either strength (most specific object
// overrides) and the parent's propagated value otherwise; the schema
// recursive slot propagates analogously; the final sign is the first
// defined among instance-strong, schema, and weak values. The preorder
// visit reads kind/firstChild/nextSibling/attr-range words from the
// arena's parallel arrays, and labels land in the dense Labeling slice
// by index. NaiveLabel is the independent reference it is tested
// against.
func (l *labeler) labelElementIdx(ar *dom.Arena, i int32, p *Label) {
	lab := l.initialLabelIdx(int(i))
	if p != nil {
		if lab.R == Epsilon && lab.RW == Epsilon {
			lab.R = p.R
			lab.RW = p.RW
		}
		lab.RD = FirstDef(lab.RD, p.RD)
	}
	lab.Final = FirstDef(lab.L, lab.R, lab.LD, lab.RD, lab.LW, lab.RW)
	s, e := ar.Attrs(i)
	for a := s; a < e; a++ {
		l.labelAttrIdx(int(a), lab)
	}
	for c := ar.FirstChild(i); c >= 0; c = ar.NextSibling(c) {
		if ar.Kind(c) == dom.ElementNode {
			l.labelElementIdx(ar, c, lab)
		}
	}
}
