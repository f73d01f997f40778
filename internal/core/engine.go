package core

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
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
	// authIndex caches per-document authorization node-sets so
	// steady-state labeling does zero XPath work; nil disables caching
	// (the differential-testing oracle). NewEngine installs one.
	authIndex *AuthIndex
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
	// Plus, Minus, Eps count the final labels of the elements and
	// attributes (ComputeView only; see Label).
	Plus, Minus, Eps int
	// Kept is the number of elements and attributes in the view.
	Kept int
	// AuthsInstance and AuthsSchema count the authorizations applicable
	// to the requester at each level.
	AuthsInstance, AuthsSchema int
}

// View is the outcome of compute-view: the document a requester is
// entitled to see, as the pair ⟨Doc, Mask⟩. The view is virtual: Doc is
// the shared read-only original and Mask carries the visibility
// decision per node, so nothing is copied and the original nodes are
// the view nodes. Consumers should go through Empty, Visible,
// OriginOf, WriteXML, Text and Materialize rather than reading the fields.
type View struct {
	// Doc is the shared original document the view is over; it is
	// never mutated.
	Doc *dom.Document
	// Mask is the visibility bitmask over Doc's node indexes.
	Mask dom.Bitmask
	// Labeling optionally holds the labels the mask was computed from,
	// keyed by Doc's node indexes. ComputeView leaves it nil: the
	// labeling is scratch for Visibility, and a cached view must not
	// carry it. Use Engine.Label to inspect labels.
	Labeling *Labeling
	// Stats summarizes the computation.
	Stats Stats
}

// Empty reports whether the view contains nothing at all — the
// requester's view of a fully protected document, which the server
// must treat as nonexistent.
func (v *View) Empty() bool {
	root := v.Doc.ReadArena().DocumentElement()
	return root < 0 || !v.Mask.VisibleIdx(root)
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

// Text returns the view as WriteXML writes it, holding each fully
// visible subtree as a reference into the document's rendering instead
// of a copy (see dom.ViewText). Any Mask in opts is overridden.
func (v *View) Text(opts dom.WriteOptions) dom.ViewText {
	opts.Mask = v.Mask
	return v.Doc.ViewText(opts)
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

// Materialize returns the view as a standalone pruned document, copied
// straight out of the arena under the mask. Each call builds a fresh
// copy: neither serving nor queries need one (queries evaluate under
// the mask), only validation, the reference pipeline tests compare
// against and offline tools.
func (v *View) Materialize() *dom.Document {
	return v.Doc.ReadArena().MaterializeMasked(v.Mask)
}

// ComputeView runs the paper's compute-view algorithm (Figure 2): it
// gathers the authorizations applicable to the requester at instance
// and schema level, labels the document tree by recursive propagation,
// and computes the view. The input document is never modified.
//
// The view is virtual: the shared document is labeled in place (labels
// live in a sparse per-request Labeling, not on the tree) and the
// transformation step produces a visibility mask instead of a pruned
// copy — set-at-a-time labeling with zero per-request tree allocation,
// the shape the paper's "fast on-line computation" claim (Section 6,
// E5) asks for. Labeling and masking cost what the applicable
// authorizations name, not the document's size.
//
// The document must have been renumbered (the parser does this) and is
// treated as immutable for the lifetime of the returned view.
func (e *Engine) ComputeView(req Request, doc *dom.Document) (*View, error) {
	return e.ComputeViewCtx(context.Background(), req, doc)
}

// ComputeViewCtx is ComputeView under a request context: labeling and
// transformation are timed as the "label" and "prune" stages (see
// trace.StartStage), the label span annotated with node-set-index
// effectiveness and label counts when ctx is traced.
func (e *Engine) ComputeViewCtx(ctx context.Context, req Request, doc *dom.Document) (*View, error) {
	lctx, tm := trace.StartStage(ctx, obs.StageLabel)
	lb, stats, err := e.LabelCtx(lctx, req, doc)
	if err != nil {
		return nil, err
	}
	tm.End()
	pol := e.PolicyFor(req.URI)
	ptm := trace.StartStageChild(ctx, obs.StagePrune)
	mask, kept, signs := visibility(doc.ReadArena(), lb, pol)
	ptm.End()
	// The sign counts come out of the sweep, which visits every
	// unlabeled range anyway.
	stats.Plus, stats.Minus, stats.Eps, stats.Kept = signs.plus, signs.minus, signs.eps, kept
	if tm.Traced() {
		tm.Lazyf("%d nodes, %d labeled: %d+, %d-, %de (auths: %d instance, %d schema)",
			stats.Nodes, lb.Stored(), stats.Plus, stats.Minus, stats.Eps, stats.AuthsInstance, stats.AuthsSchema)
	}
	if card := trace.CostFromContext(ctx); card != nil {
		card.NodesSwept += int64(stats.Nodes)
		card.NodesKept += int64(kept)
	}
	return &View{Doc: doc, Mask: mask, Stats: stats}, nil
}

// Label runs only the tree-labeling step on doc (in place with respect
// to labels; the tree is not modified), returning the labeling and
// statistics. Exposed separately so benchmarks and diagnostic tools can
// separate labeling cost from pruning cost. The labeling step stores
// only what the authorizations name, so the Stats' sign counts stay
// zero: ComputeView counts them in its sweep, Labeling.Count on demand.
func (e *Engine) Label(req Request, doc *dom.Document) (*Labeling, Stats, error) {
	return e.LabelCtx(context.Background(), req, doc)
}

// LabelCtx is Label under a (possibly traced) context; node-set-index
// fills triggered by the labeling appear as child spans of the
// context's current span.
func (e *Engine) LabelCtx(ctx context.Context, req Request, doc *dom.Document) (*Labeling, Stats, error) {
	axml, adtd, err := e.applicable(req)
	if err != nil {
		return nil, Stats{}, err
	}
	pol := e.PolicyFor(req.URI)
	ar := doc.ReadArena()
	l := &labeler{h: e.Hierarchy, rule: pol.Conflict, ar: ar, out: &Labeling{ar: ar}}
	// Set-at-a-time object evaluation: each authorization's path
	// expression runs once per request, not once per node — the heart of
	// the paper's "fast on-line computation" claim (E5 measures it
	// against the per-node alternative). With the node-set index enabled
	// the path runs once per (document, store generation) instead: the
	// cached dense index set is intersected with the per-request subject
	// filter already applied by applicable(), so the steady state does
	// zero XPath work. Either way collection stays in index space, and
	// no tree node is touched.
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
	// Each naming is one key, node index above position in l.auths,
	// so one sort of plain integers orders them by node.
	l.auths, l.schemaFrom = append(axml, adtd...), len(axml)
	for pos, a := range l.auths {
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
			return nil, Stats{}, fmt.Errorf("core: evaluating %s: %w", a, err)
		}
		// The set holds elements and attributes only.
		for _, i := range set {
			l.hits = append(l.hits, uint64(i)<<32|uint64(pos))
		}
	}
	if sp.Traced() && idx != nil {
		sp.Lazyf("authindex: %d hits, %d misses", idxHits, idxMisses)
	}
	l.label()
	stats := Stats{
		Nodes:         ar.CountElemAttrs(),
		AuthsInstance: len(axml),
		AuthsSchema:   len(adtd),
	}
	if card := trace.CostFromContext(ctx); card != nil {
		card.NodesLabeled += int64(l.out.Stored())
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
	// The requester is converted to its ASH element on the first check
	// only, so a document with no authorizations never parses it.
	var covers func(subjects.Subject) bool
	keep := func(a *authz.Authorization) (bool, error) {
		if covers == nil {
			if covers, err = e.Hierarchy.Applicable(req.Requester); err != nil {
				return false, err
			}
		}
		return covers(a.Subject) && a.Action == req.action() && a.ActiveAt(at), nil
	}
	for _, a := range e.Store.ForDocument(req.URI) {
		ok, err := keep(a)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			axml = append(axml, a)
		}
	}
	if req.DTDURI != "" {
		for _, a := range e.Store.ForSchema(req.DTDURI) {
			ok, err := keep(a)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				adtd = append(adtd, a)
			}
		}
	}
	return axml, adtd, nil
}

// nodeAuths collects the applicable authorizations that name one node,
// by slot.
type nodeAuths struct {
	// instance[t] holds instance-level authorizations of type t.
	instance [4][]*authz.Authorization
	// dtdLocal and dtdRec hold schema-level authorizations (weak types
	// cannot occur at schema level).
	dtdLocal, dtdRec []*authz.Authorization
}

// labeler runs Figure 2's labeling over the named nodes only.
type labeler struct {
	h          subjects.Hierarchy
	rule       ConflictRule
	ar         *dom.Arena
	auths      []*authz.Authorization // instance level, then schema level
	schemaFrom int                    // position of the first schema-level one
	// hits holds one key per (node, authorization) naming: the node's
	// index in the high 32 bits, the authorization's position in auths
	// in the low ones. Sorted, they run in preorder.
	hits []uint64
	next int // first hit not yet consumed
	own  nodeAuths
	out  *Labeling
}

// node returns the node index of hit h.
func (l *labeler) node(h int) int32 { return int32(l.hits[h] >> 32) }

// label stores the labels of the named nodes and their ancestor chains,
// in preorder: O(named × depth) instead of a visit to every node. stack
// holds the stored elements on the current chain; each named node
// pushes the part of its chain the stack does not hold yet, top down,
// so every parent label is final before its children take from it.
func (l *labeler) label() {
	ar := l.ar
	slices.Sort(l.hits)
	// Named nodes share most of their chains: twice the namings covers
	// the chains in the common case, and append grows the rest.
	l.out.idx = make([]int32, 0, min(2*len(l.hits)+32, l.ar.Len()))
	l.out.labels = make([]Label, 0, cap(l.out.idx))
	type frame struct {
		k   int   // position of the element's label in l.out
		end int32 // SubtreeEnd of the element
	}
	var stack []frame
	var chain []int32
	for l.next < len(l.hits) {
		owner := l.node(l.next)
		if ar.Kind(owner) == dom.AttributeNode {
			owner = ar.Parent(owner)
		}
		for len(stack) > 0 && owner >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		top := int32(0) // the document node
		if len(stack) > 0 {
			top = l.out.idx[stack[len(stack)-1].k]
		}
		chain = chain[:0]
		for p := owner; p != top; p = ar.Parent(p) {
			chain = append(chain, p)
		}
		for j := len(chain) - 1; j >= 0; j-- {
			var parent Label // the document element inherits nothing
			if len(stack) > 0 {
				parent = l.out.labels[stack[len(stack)-1].k]
			}
			k := l.element(chain[j], parent)
			// SubtreeEnd in O(1): the next sibling, else the parent's end.
			end := ar.NextSibling(chain[j])
			if end < 0 {
				if len(stack) > 0 {
					end = stack[len(stack)-1].end
				} else {
					end = ar.SubtreeEnd(chain[j])
				}
			}
			stack = append(stack, frame{k: k, end: end})
		}
	}
}

// ownLabel computes the own 6-tuple of the node at index i from the
// authorizations that name it (procedure initial_label of Figure 2),
// consuming its hits. Hits are consumed in preorder, so i's hits, if
// any, are the next ones.
func (l *labeler) ownLabel(i int32) Label {
	if l.next >= len(l.hits) || l.node(l.next) != i {
		return Label{}
	}
	na := &l.own
	for t := range na.instance {
		na.instance[t] = na.instance[t][:0]
	}
	na.dtdLocal, na.dtdRec = na.dtdLocal[:0], na.dtdRec[:0]
	isAttr := l.ar.Kind(i) == dom.AttributeNode
	for ; l.next < len(l.hits) && l.node(l.next) == i; l.next++ {
		pos := int(uint32(l.hits[l.next]))
		l.addAuth(isAttr, l.auths[pos], pos >= l.schemaFrom)
	}
	return Label{
		L:  l.signOf(na.instance[authz.Local]),
		R:  l.signOf(na.instance[authz.Recursive]),
		LW: l.signOf(na.instance[authz.LocalWeak]),
		RW: l.signOf(na.instance[authz.RecursiveWeak]),
		LD: l.signOf(na.dtdLocal),
		RD: l.signOf(na.dtdRec),
	}
}

// addAuth files authorization a under its slot for the node being
// labeled. On attribute nodes the recursive types collapse into their
// local counterparts: an attribute is a leaf of the tree, so R/RW slots
// "are always null for an attribute" (Section 6.1) and a recursive
// authorization naming an attribute directly protects exactly that
// attribute.
func (l *labeler) addAuth(isAttr bool, a *authz.Authorization, schema bool) {
	na := &l.own
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

// element implements procedure label(n,p) for the element at arena
// index i under its parent's propagated label p (the zero label for the
// document element, which takes its own signs only; steps 4-6 of
// compute-view): n's recursive slots take their own value when the node
// carries a recursive authorization of either strength (most specific
// object overrides) and the parent's propagated value otherwise; the
// schema recursive slot propagates analogously; the final sign is the
// first defined among instance-strong, schema, and weak values. It
// stores the element's label, then those of its named attributes, and
// returns the element's position in the labeling. Its other attributes
// take their label from the element's alone (Labeling.lookup).
// NaiveLabel is the independent reference this is tested against.
func (l *labeler) element(i int32, p Label) int {
	lab := l.ownLabel(i)
	if lab.R == Epsilon && lab.RW == Epsilon {
		lab.R = p.R
		lab.RW = p.RW
	}
	lab.RD = FirstDef(lab.RD, p.RD)
	lab.Final = FirstDef(lab.L, lab.R, lab.LD, lab.RD, lab.LW, lab.RW)
	k := len(l.out.idx)
	l.out.add(i, lab)
	// Every hit before i is consumed, so the next ones name attributes
	// of i exactly while they lie below the end of its attribute range.
	for _, e := l.ar.Attrs(i); l.next < len(l.hits) && l.node(l.next) < e; {
		a := l.node(l.next)
		l.out.add(a, attrLabel(l.ownLabel(a), lab))
	}
	return k
}

// attrLabel implements label(n,p) for an attribute with own 6-tuple
// own of an element labeled p. Per Section 6.1 an attribute has no
// recursive slots, and Local authorizations on the parent element
// propagate to it. Within each priority channel the order is: the
// attribute's own sign, then the parent's local sign, then the
// recursive sign in force at the parent:
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
func attrLabel(own, p Label) Label {
	lab := own
	if lab.L == Epsilon && lab.LW == Epsilon {
		lab.L = FirstDef(p.L, p.R)
		lab.LW = FirstDef(p.LW, p.RW)
	}
	lab.LD = FirstDef(lab.LD, p.LD, p.RD)
	lab.Final = FirstDef(lab.L, lab.LD, lab.LW)
	return lab
}
