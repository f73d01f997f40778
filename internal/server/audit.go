package server

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"xmlsec/internal/obs"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
)

// AuditRecord is one line of the site's audit trail: who asked for
// what, what the decision was, and how much of the document the
// decision exposed. Access-control decisions are security-relevant
// events; a processor that cannot answer "who saw this document"
// after the fact is not deployable.
type AuditRecord struct {
	// Time is the decision instant (RFC 3339, UTC).
	Time time.Time `json:"time"`
	// RequestID joins the audit line to the rest of the request's
	// observability: it equals the X-Request-ID response header and,
	// for sampled requests, the trace ID under /debug/traces. Empty for
	// decisions made outside an HTTP request (direct API use).
	RequestID string `json:"request_id,omitempty"`
	// Op is the operation: "read", "write", "update", or "query".
	Op string `json:"op"`
	// User, IP, Host identify the requester (the subject triple).
	User string `json:"user"`
	IP   string `json:"ip"`
	Host string `json:"host,omitempty"`
	// URI is the requested document.
	URI string `json:"uri"`
	// Decision is "ok", "not-found", "forbidden", "conflict", or
	// "error".
	Decision string `json:"decision"`
	// Kept and Nodes report the view size for successful reads and
	// queries.
	Kept  int `json:"kept,omitempty"`
	Nodes int `json:"nodes,omitempty"`
	// Detail carries the denial reason or error summary, if any.
	Detail string `json:"detail,omitempty"`
	// Cost is the request's itemized work receipt (see obs.CostCard),
	// copied from the request's record at the decision. Nil for direct
	// API use, which carries no record.
	Cost *obs.CostCard `json:"cost,omitempty"`
}

// auditor serializes audit records as JSON lines to a writer.
type auditor struct {
	mu      sync.Mutex
	w       io.Writer
	now     func() time.Time
	records atomic.Uint64
}

// Records returns the number of audit records written; nil-safe so the
// metrics layer can read it whether or not auditing is enabled.
func (a *auditor) Records() uint64 {
	if a == nil {
		return 0
	}
	return a.records.Load()
}

// SetAuditLog directs the site's audit trail to w (JSON lines). Pass
// nil to disable. Safe to call before serving traffic.
func (s *Site) SetAuditLog(w io.Writer) {
	if w == nil {
		s.audit = nil
		return
	}
	s.audit = &auditor{w: w, now: func() time.Time { return time.Now().UTC() }}
}

func (a *auditor) log(rec AuditRecord) {
	if a == nil {
		return
	}
	rec.Time = a.now()
	b, err := json.Marshal(rec)
	if err != nil {
		return // an unmarshalable record must not break serving
	}
	a.records.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	_, _ = a.w.Write(append(b, '\n'))
}

// auditOp writes the audit record of one access decision — op is
// "read", "query", "write" or "update". The request ID and a copy of
// the cost card come from the request record ctx carries (neither is
// set for direct API use); a successful read or query also reports its
// view's size from v. One ladder maps err to the decision for every
// op. Conflicts get their own decision: a script that no longer fits
// the document is an ordinary coordination event, not an authorization
// one, and filtering the trail for "forbidden" must not drown in them.
func (s *Site) auditOp(ctx context.Context, op string, rq subjects.Requester, uri string, v *servedView, err error) {
	if s.audit == nil {
		return
	}
	rec := AuditRecord{Op: op, User: rq.User, IP: rq.IP, Host: rq.Host, URI: uri}
	if rc := trace.RecordFromContext(ctx); rc != nil {
		// A copy: the record returns to its pool when the request ends.
		cost := rc.Cost
		rec.RequestID, rec.Cost = rc.ID, &cost
	}
	switch {
	case err == nil:
		rec.Decision = "ok"
		if v != nil {
			rec.Kept, rec.Nodes = v.view.Stats.Kept, v.view.Stats.Nodes
		}
	case isNotFound(err):
		rec.Decision = "not-found"
	case isForbidden(err):
		rec.Decision = "forbidden"
	case isConflict(err):
		rec.Decision = "conflict"
	default:
		rec.Decision = "error"
	}
	if rec.Decision != "ok" && rec.Decision != "not-found" {
		rec.Detail = err.Error()
	}
	s.audit.log(rec)
}
