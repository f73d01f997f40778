package server

import (
	"context"
	"errors"
	"fmt"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

// ErrForbidden is returned when a requester holds some access to a
// document but not the authority the operation requires.
var ErrForbidden = errors.New("server: operation not authorized")

func isNotFound(err error) bool  { return errors.Is(err, ErrNotFound) }
func isForbidden(err error) bool { return errors.Is(err, ErrForbidden) }

// WriteAction is the action name of update authorizations. The paper
// leaves full write semantics as future work (Section 8, footnote 2:
// "the support of other actions ... does not complicate the
// authorization model"); authorizations with action "write" flow
// through the same subjects/objects/signs/types machinery.
const WriteAction = "write"

// Update replaces the document at uri with newSource under
// write-through-views semantics — the natural extension of the paper's
// view concept to its open "write and update operations" item:
//
//   - the requester's replacement is diffed against *their read view*
//     of the document, never against the original, so unreadable
//     content can neither be observed, overwritten, nor confirmed
//     through the write path;
//   - each edit requires a positive write label (action "write") on
//     the original node it touches — see core.MergeView for the exact
//     mapping;
//   - the server merges the authorized edits back into the original,
//     preserving everything the view hid, and the merged document must
//     be valid against the same DTD.
//
// Returns ErrNotFound for unknown documents — or documents the
// requester cannot even read, which must stay indistinguishable from
// absent ones — and ErrForbidden (wrapping the offending edit) when an
// edit exceeds the requester's write authority.
func (s *Site) Update(rq subjects.Requester, uri, newSource string) error {
	return s.UpdateContext(context.Background(), rq, uri, newSource)
}

// UpdateContext is Update under a request context: the write path's
// stages (parse, read view, merge, validation, log append) are timed
// onto the context's cost card and, when traced, recorded as spans;
// the request ID is written into the audit record.
//
// Only the parse of the replacement runs outside the persistence lock.
// The read view, the write labeling, the merge, validation, the log
// append and the commit all run under it, against the document and the
// authorizations the commit replaces: a merge computed outside the lock
// could fill hidden content from a copy that a concurrent, acknowledged
// update has since superseded and so revert it, or commit under write
// labels that a concurrent authorization change has since revoked.
// ApplyUpdate holds the lock the same way.
func (s *Site) UpdateContext(ctx context.Context, rq subjects.Requester, uri, newSource string) (err error) {
	defer func() { s.auditOp(ctx, "write", rq, uri, nil, err) }()
	tm := trace.StartStageChild(ctx, obs.StageParse)
	res, parseErr := xmlparse.Parse(newSource, xmlparse.Options{
		Loader:        storeLoader{s.Docs},
		ApplyDefaults: true,
	})
	tm.End()
	if err := s.mergeAndCommit(ctx, rq, uri, res, parseErr); err != nil {
		return err
	}
	// Pre-fill the node-set index for the successor so the next
	// requester's labeling finds warm node-sets.
	if nd := s.Docs.Doc(uri); nd != nil {
		s.Engine.WarmAuthIndex(nd.Doc, uri, nd.DTDURI, 4)
	}
	return nil
}

// mergeAndCommit is the part of UpdateContext that runs under
// persistMu, which it holds throughout: it merges the parsed
// replacement (or reports parseErr) into the stored document and
// commits the result.
func (s *Site) mergeAndCommit(ctx context.Context, rq subjects.Requester, uri string, res *xmlparse.Result, parseErr error) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	sd := s.Docs.Doc(uri)
	if sd == nil {
		return ErrNotFound
	}
	readView, writable, err := s.writeAccess(ctx, rq, sd)
	if err != nil {
		return err
	}
	// A malformed replacement is a client error regardless of
	// authority.
	if parseErr != nil {
		return fmt.Errorf("server: update of %q: %w", uri, parseErr)
	}
	newDTDURI := ""
	if res.Doc.DocType != nil {
		newDTDURI = res.Doc.DocType.SystemID
	}
	if newDTDURI != sd.DTDURI {
		return fmt.Errorf("server: update of %q must keep DTD %q (got %q)", uri, sd.DTDURI, newDTDURI)
	}
	// The merge walks a pointer tree and relies on the view's nodes
	// being the original's, so it runs over one private copy of the
	// stored document with the read view's mask laid on that copy: the
	// copy's nodes carry the arena's indexes, which the mask and the
	// write labeling are keyed by.
	tm := trace.StartStageChild(ctx, obs.StageMerge)
	orig := sd.Doc.ReadTree()
	merged, err := core.MergeView(orig, &core.View{Doc: orig, Mask: readView.Mask}, res.Doc.ReadTree(),
		func(n *dom.Node) bool { return writable(int32(n.Order)) })
	tm.End()
	if err != nil {
		var wde *core.WriteDeniedError
		if errors.As(err, &wde) {
			return fmt.Errorf("%w: %s", ErrForbidden, wde.Reason)
		}
		return err
	}
	// The commit step re-parses the merged text and validates it, IDs
	// included; the replacement is durable before it is visible: the
	// WAL record is appended (and, under -fsync always, flushed) before
	// the commit swaps the new document in.
	src := merged.String()
	_, err = s.commitDocLocked(ctx, uri, src, mutation{Op: "doc", Source: src})
	return err
}

// writeAccess computes what a write by rq to the stored document sd is
// checked against: the requester's read view of it, and whether the
// write labeling (action "write") grants the node at each dense
// preorder index under the document's policy. An empty read view is
// ErrNotFound, before anything else is reported: a requester who cannot
// read the document must not learn from a write that it exists.
func (s *Site) writeAccess(ctx context.Context, rq subjects.Requester, sd *StoredDoc) (*core.View, func(int32) bool, error) {
	req := core.Request{Requester: rq, URI: sd.URI, DTDURI: sd.DTDURI}
	rctx, sp := trace.StartSpan(ctx, "read-view")
	view, err := s.Engine.ComputeViewCtx(rctx, req, sd.Doc)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if view.Empty() {
		return nil, nil, ErrNotFound
	}
	req.Action = WriteAction
	wctx, sp := trace.StartSpan(ctx, "write-label")
	lb, _, err := s.Engine.LabelCtx(wctx, req, sd.Doc)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	pol := s.Engine.PolicyFor(sd.URI)
	return view, func(i int32) bool { return pol.Grants(lb.FinalAt(int(i))) }, nil
}

// QueryDoc evaluates an XPath query against the requester's view of a
// document (the paper's "requests in form of generic queries" future
// work) and returns the query result document. Queries run on the
// view, never the original, so they cannot observe protected content.
//
// The view comes from the site's view cache when it is on, so queries
// and document reads share cached views; a query reads only the view's
// mask and never renders its text. Query evaluation is
// strictly read-only over the cached view (it reads the shared arena
// under the view's mask and copies matches out), which keeps the
// sharing sound under concurrency; a regression test pins this under
// -race.
func (s *Site) QueryDoc(rq subjects.Requester, uri, expr string) (*dom.Document, error) {
	return s.QueryDocContext(context.Background(), rq, uri, expr)
}

// QueryDocContext is QueryDoc under a request context: the evaluation
// stops when ctx is done or exceeds xpath.MaxVisits, an answer past
// xpath.MaxResultNodes is refused before it is copied, and a traced
// context records the view computation's cycle stages and the query
// evaluation ("xpath.eval") as spans. The request is audited once the
// evaluation is done, so the audit record's cost card carries it.
func (s *Site) QueryDocContext(ctx context.Context, rq subjects.Requester, uri, expr string) (*dom.Document, error) {
	// Compile and type-check first: a malformed expression, or one that
	// cannot select nodes, is the client's fault and must fail before
	// it costs a view computation.
	p, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	if err := p.CheckNodeSet(); err != nil {
		return nil, err
	}
	v, err := s.process(ctx, rq, uri)
	var out *dom.Document
	if err == nil {
		out, err = v.view.QueryResultOf(ctx, p)
	}
	s.auditOp(ctx, "query", rq, uri, v, err)
	return out, err
}

// GrantWrite installs a write authorization from its tuple form,
// rejecting tuples whose action is not "write". Durable when the site
// has a write-ahead log.
func (s *Site) GrantWrite(level authz.Level, tuple string) error {
	a, err := authz.Parse(tuple)
	if err != nil {
		return err
	}
	if a.Action != WriteAction {
		return fmt.Errorf("server: GrantWrite requires action %q, got %q", WriteAction, a.Action)
	}
	// Pre-check the one way Add can reject, so nothing unappliable is
	// ever logged.
	if level == authz.SchemaLevel && a.Type.IsWeak() {
		return fmt.Errorf("server: weak authorization %s not allowed at schema level", a)
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if err := s.logMutation(context.Background(), mutation{
		Op: "grant", Level: level.String(), Tuple: tuple,
	}); err != nil {
		return err
	}
	if err := s.Auths.Add(level, a); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}
