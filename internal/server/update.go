package server

import (
	"context"
	"errors"
	"fmt"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
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
// stages (read view, parse, merge, validation, log append) are timed
// onto the context's cost card and, when traced, recorded as spans;
// the request ID is written into the audit record.
func (s *Site) UpdateContext(ctx context.Context, rq subjects.Requester, uri, newSource string) (err error) {
	defer func() { s.auditWrite(ctx, rq, uri, err) }()
	sd := s.Docs.Doc(uri)
	if sd == nil {
		return ErrNotFound
	}
	// Visibility first: a requester with no read view must not learn
	// that the document exists from the write path either.
	readReq := core.Request{Requester: rq, URI: uri, DTDURI: sd.DTDURI}
	rctx, sp := trace.StartSpan(ctx, "read-view")
	readView, err := s.Engine.ComputeViewCtx(rctx, readReq, sd.Doc)
	sp.End()
	if err != nil {
		return err
	}
	if readView.Empty() {
		return ErrNotFound
	}
	// Parse the replacement before judging it (malformed input is a
	// client error regardless of authority).
	tm := trace.StartStageChild(ctx, obs.StageParse)
	res, err := xmlparse.Parse(newSource, xmlparse.Options{
		Loader:        storeLoader{s.Docs},
		ApplyDefaults: true,
	})
	tm.End()
	if err != nil {
		return fmt.Errorf("server: update of %q: %w", uri, err)
	}
	newDTDURI := ""
	if res.Doc.DocType != nil {
		newDTDURI = res.Doc.DocType.SystemID
	}
	if newDTDURI != sd.DTDURI {
		return fmt.Errorf("server: update of %q must keep DTD %q (got %q)", uri, sd.DTDURI, newDTDURI)
	}
	// Write labels on the original document.
	writeReq := core.Request{Requester: rq, URI: uri, DTDURI: sd.DTDURI, Action: WriteAction}
	wctx, sp := trace.StartSpan(ctx, "write-label")
	lb, _, err := s.Engine.LabelCtx(wctx, writeReq, sd.Doc)
	sp.End()
	if err != nil {
		return err
	}
	pol := s.Engine.PolicyFor(uri)
	writable := func(n *dom.Node) bool {
		return pol.Grants(lb.FinalOf(n))
	}
	tm = trace.StartStageChild(ctx, obs.StageMerge)
	merged, err := core.MergeView(sd.Doc, readView, res.Doc, writable)
	tm.End()
	if err != nil {
		var wde *core.WriteDeniedError
		if errors.As(err, &wde) {
			return fmt.Errorf("%w: %s", ErrForbidden, wde.Reason)
		}
		return err
	}
	if sd.DTDURI != "" {
		tm = trace.StartStageChild(ctx, obs.StageValidate)
		d := s.Docs.DTD(sd.DTDURI)
		if d == nil {
			return fmt.Errorf("server: document %q references unregistered DTD %q", uri, sd.DTDURI)
		}
		errs := d.Validate(merged, dtd.ValidateOptions{IgnoreIDs: true})
		tm.End()
		if errs != nil {
			return fmt.Errorf("server: update of %q is not valid: %w", uri, errs)
		}
	}
	oldDoc := sd.Doc
	// The replacement is durable before it is visible: the WAL record
	// is appended (and, under -fsync always, flushed) before the commit
	// swaps the parsed tree in, inside PutDocumentContext.
	if err := s.PutDocumentContext(ctx, uri, merged.String()); err != nil {
		return err
	}
	// The PUT replaced the parsed tree: release the superseded document
	// from the node-set index eagerly (its pointer would never be looked
	// up again, only pinned) and pre-fill the successor so the next
	// requester's labeling finds warm node-sets.
	if idx := s.Engine.AuthIndex(); idx != nil {
		idx.InvalidateDoc(oldDoc)
		if nd := s.Docs.Doc(uri); nd != nil {
			s.Engine.WarmAuthIndex(nd.Doc, uri, nd.DTDURI, 4)
		}
	}
	return nil
}

// QueryDoc evaluates an XPath query against the requester's view of a
// document (the paper's "requests in form of generic queries" future
// work) and returns the query result document. Queries run on the
// view, never the original, so they cannot observe protected content.
//
// The view is obtained through Process, so queries share the site's
// per-requester view cache with document reads. Query evaluation is
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
	res, err := s.process(ctx, rq, uri)
	var out *dom.Document
	if err == nil {
		out, err = res.View.QueryResultOf(ctx, p)
	}
	s.auditRead(ctx, rq, uri, res, err)
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
