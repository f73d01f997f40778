package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strings"
	"time"

	"xmlsec/internal/dom"
	"xmlsec/internal/trace"
	"xmlsec/internal/update"
	"xmlsec/internal/xpath"
)

// defaultMaxUpdateBytes bounds PUT bodies when Site.MaxUpdateBytes is
// unset.
const defaultMaxUpdateBytes = 16 << 20

// Handler exposes the site over HTTP:
//
//	GET /docs/<uri>           — the requester's view of the document
//	PUT /docs/<uri>           — replace the document (write authority)
//	POST /docs/<uri>/update   — apply an update script (write authority)
//	GET /query/<uri>?q=<xp>   — XPath query over the requester's view
//	GET /dtds/<uri>           — the loosened DTD (never the original)
//	GET /healthz              — liveness probe
//	GET /readyz               — readiness probe (503 during recovery)
//	GET /metrics              — Prometheus text exposition
//	GET /statz                — metrics snapshot as JSON
//	GET /debug/traces         — recent/slow request traces (EnableTracing)
//	GET /debug/traces/{id}    — one trace's span waterfall
//	GET /debug/slowz          — worst requests with cost cards (EnableSlowLog)
//	GET /debug/cachez         — view-cache contents (EnableViewCache)
//	GET /debug/authindexz     — node-set index contents
//	GET /debug/classz         — equivalence-class universe (EnableViewCache)
//	GET /debug/walz           — write-ahead log state (EnableDurability)
//	GET /debug/pprof/         — runtime profiles (EnablePprof)
//	POST /admin/xacl          — install an XACL document (EnableAdminAPI)
//
// Identification uses HTTP Basic authentication against the site's
// UserDB; requests without credentials proceed as "anonymous". The
// requester's IP is taken from the connection and its symbolic name
// from the site's resolver, completing the paper's subject triple.
//
// Every request is recorded in the site's metric registry (count,
// latency, and status by route); see Metrics(). Every response carries
// an X-Request-ID header (the client's, when it sent a well-formed
// one) that also appears in audit records, structured log lines, slow-
// log entries and, for sampled requests, as the trace ID under
// /debug/traces.
//
// /statz and the /debug endpoints share one exposure policy: open by
// default, or restricted to a directory group via Site.DebugGroup.
// Handlers for disabled subsystems answer 404. While the site is not
// Ready(), the stateful routes answer 503; probes and introspection
// stay reachable so operators can watch a recovery.
func (s *Site) Handler() http.Handler {
	s.initMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /docs/", s.handleDoc)
	mux.HandleFunc("PUT /docs/", s.handleUpdate)
	mux.HandleFunc("POST /docs/", s.handleApplyUpdate)
	mux.HandleFunc("GET /query/", s.handleQuery)
	mux.HandleFunc("GET /dtds/", s.handleDTD)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /statz", s.gateDebug(s.handleStatz))
	mux.HandleFunc("GET /debug/traces", s.gateDebug(s.handleTraces))
	mux.HandleFunc("GET /debug/traces/{id}", s.gateDebug(s.handleTraceDetail))
	mux.HandleFunc("GET /debug/slowz", s.gateDebug(s.handleSlowz))
	mux.HandleFunc("GET /debug/cachez", s.gateDebug(s.handleCachez))
	mux.HandleFunc("GET /debug/authindexz", s.gateDebug(s.handleAuthindexz))
	mux.HandleFunc("GET /debug/classz", s.gateDebug(s.handleClassz))
	mux.HandleFunc("GET /debug/walz", s.gateDebug(s.handleWalz))
	if s.EnableAdminAPI {
		mux.HandleFunc("POST /admin/xacl", s.handleAdminXACL)
	}
	if s.EnablePprof {
		// The handlers are reached through the site's own mux rather
		// than the net/http/pprof side-effect registration on
		// DefaultServeMux, so the flag really gates them.
		mux.HandleFunc("GET /debug/pprof/", s.gateDebug(httppprof.Index))
		mux.HandleFunc("GET /debug/pprof/cmdline", s.gateDebug(httppprof.Cmdline))
		mux.HandleFunc("GET /debug/pprof/profile", s.gateDebug(httppprof.Profile))
		mux.HandleFunc("GET /debug/pprof/symbol", s.gateDebug(httppprof.Symbol))
		mux.HandleFunc("GET /debug/pprof/trace", s.gateDebug(httppprof.Trace))
	}
	return s.instrument(s.gateReadiness(mux))
}

// authenticate resolves the requesting user. The bool result is false
// when credentials were presented and rejected.
func (s *Site) authenticate(r *http.Request) (string, bool) {
	user, pass, ok := r.BasicAuth()
	if !ok {
		return "", true // anonymous
	}
	if s.Users.Authenticate(user, pass) {
		return user, true
	}
	return "", false
}

func (s *Site) peerIP(r *http.Request) string {
	if s.TrustForwardedFor {
		if fwd := r.Header.Get("X-Forwarded-For"); fwd != "" {
			// Use the first (client) address of the chain — but only
			// if it actually is an address. The header is an
			// access-control input (location patterns match against
			// it), so a garbage or spoofed value must not flow into
			// pattern matching; fall back to the connection's peer.
			if i := strings.IndexByte(fwd, ','); i >= 0 {
				fwd = fwd[:i]
			}
			if ip := net.ParseIP(strings.TrimSpace(fwd)); ip != nil {
				return ip.String()
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Site) handleDoc(w http.ResponseWriter, r *http.Request) {
	user, ok := s.authenticate(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Basic realm="xmlsec"`)
		http.Error(w, "authentication failed", http.StatusUnauthorized)
		return
	}
	uri := strings.TrimPrefix(r.URL.Path, "/docs/")
	rq := s.RequesterFor(user, s.peerIP(r))
	res, err := s.ProcessContext(r.Context(), rq, uri)
	switch {
	case errors.Is(err, ErrNotFound):
		// Unknown documents and fully protected documents are
		// indistinguishable, by design.
		http.NotFound(w, r)
		return
	case err != nil:
		// The structured line keeps the error detail server-side; the
		// client sees only the opaque 500. Attribute values are data, not
		// format-string input, so requester fields cannot inject.
		s.logger().Error("document request failed",
			"request_id", trace.RequestID(r.Context()), "uri", uri,
			"user", rq.User, "ip", rq.IP, "class", classOf(r.Context()),
			"error", err.Error())
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write([]byte(res.XML))
}

func (s *Site) handleUpdate(w http.ResponseWriter, r *http.Request) {
	user, ok := s.authenticate(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Basic realm="xmlsec"`)
		http.Error(w, "authentication failed", http.StatusUnauthorized)
		return
	}
	uri := strings.TrimPrefix(r.URL.Path, "/docs/")
	limit := s.MaxUpdateBytes
	if limit <= 0 {
		limit = defaultMaxUpdateBytes
	}
	// MaxBytesReader (unlike a bare LimitReader) fails the read when
	// the body exceeds the limit, so an oversized document is rejected
	// outright instead of being parsed as a corrupt prefix.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	rq := s.RequesterFor(user, s.peerIP(r))
	switch err := s.UpdateContext(r.Context(), rq, uri, string(body)); {
	case errors.Is(err, ErrNotFound):
		http.NotFound(w, r)
	case errors.Is(err, ErrForbidden):
		http.Error(w, "write not authorized", http.StatusForbidden)
	case err != nil:
		// Parse/validity problems are the client's fault; report them.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleApplyUpdate serves POST /docs/<uri>/update: the body is an
// update script in either of its forms (see update.ParseScript), the
// response 204 on commit or a JSON document carrying the per-operation
// error report. The status ladder mirrors PUT — 401 bad credentials,
// 404 unknown-or-unreadable document, 403 any operation denied, 409 the
// script does not fit the document, 413 oversized body, 422 invalid
// script or a result that breaks DTD validity, 500 the WAL refused the
// delta record.
func (s *Site) handleApplyUpdate(w http.ResponseWriter, r *http.Request) {
	user, ok := s.authenticate(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Basic realm="xmlsec"`)
		http.Error(w, "authentication failed", http.StatusUnauthorized)
		return
	}
	uri, found := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/docs/"), "/update")
	if !found || uri == "" {
		// POST on a bare document path: the resource is there, the verb
		// is not (the mux can only route on the prefix).
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "POST is only supported on /docs/<uri>/update", http.StatusMethodNotAllowed)
		return
	}
	limit := s.MaxUpdateBytes
	if limit <= 0 {
		limit = defaultMaxUpdateBytes
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	rq := s.RequesterFor(user, s.peerIP(r))
	start := time.Now()
	err = s.ApplyUpdate(r.Context(), rq, uri, string(body))
	s.metrics.updateApply.ObserveSince(start)
	outcome := "ok"
	switch {
	case err == nil:
		if card := trace.CostFromContext(r.Context()); card != nil {
			s.metrics.updateOps.Add(uint64(card.OpsApplied))
			s.metrics.updateCopied.Add(uint64(card.NodesCopied))
		}
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrNotFound):
		outcome = "not-found"
		http.NotFound(w, r)
	case errors.Is(err, ErrForbidden):
		outcome = "forbidden"
		writeUpdateReport(w, http.StatusForbidden, err)
	case errors.Is(err, ErrConflict):
		outcome = "conflict"
		writeUpdateReport(w, http.StatusConflict, err)
	case s.Durable() && errors.Is(err, errWALAppend):
		outcome = "error"
		s.logger().Error("update append failed",
			"request_id", trace.RequestID(r.Context()), "uri", uri,
			"user", rq.User, "ip", rq.IP, "error", err.Error())
		http.Error(w, "internal error", http.StatusInternalServerError)
	default:
		// Script parse errors and validity violations are the client's
		// fault; report them.
		outcome = "invalid"
		writeUpdateReport(w, http.StatusUnprocessableEntity, err)
	}
	s.metrics.updateReqs.With(outcome).Inc()
}

// writeUpdateReport answers a failed update with a JSON error document:
// the overall message plus, for authorization and resolution failures,
// the per-operation report (already view-safe, see update.Resolve).
func writeUpdateReport(w http.ResponseWriter, status int, err error) {
	var se *ScriptError
	rep := struct {
		Error  string           `json:"error"`
		Report []update.OpError `json:"report,omitempty"`
	}{Error: err.Error()}
	if errors.As(err, &se) {
		rep.Report = se.Report
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

func (s *Site) handleQuery(w http.ResponseWriter, r *http.Request) {
	user, ok := s.authenticate(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Basic realm="xmlsec"`)
		http.Error(w, "authentication failed", http.StatusUnauthorized)
		return
	}
	uri := strings.TrimPrefix(r.URL.Path, "/query/")
	expr := r.URL.Query().Get("q")
	if expr == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	rq := s.RequesterFor(user, s.peerIP(r))
	res, err := s.QueryDocContext(r.Context(), rq, uri, expr)
	switch {
	case errors.Is(err, ErrNotFound):
		http.NotFound(w, r)
		return
	case err != nil:
		// A malformed or ill-typed expression is the client's fault, and
		// so is one that exceeds the evaluation budget or whose answer
		// exceeds the result budget; a client that gave up gets 503.
		// Anything else is an internal failure whose detail (engine
		// internals, store state) must not reach the client.
		var se *xpath.SyntaxError
		var te *xpath.TypeError
		switch {
		case errors.As(err, &se) || errors.As(err, &te):
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		case errors.Is(err, xpath.ErrBudget) || errors.Is(err, xpath.ErrResultSize):
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			http.Error(w, "query cancelled", http.StatusServiceUnavailable)
			return
		}
		s.logger().Error("query request failed",
			"request_id", trace.RequestID(r.Context()), "uri", uri,
			"user", rq.User, "ip", rq.IP, "class", classOf(r.Context()),
			"error", err.Error())
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	if err := res.Write(w, dom.WriteOptions{Indent: "  "}); err != nil {
		s.logger().Warn("writing query result failed",
			"request_id", trace.RequestID(r.Context()), "uri", uri,
			"error", err.Error())
	}
}

// DefaultAdminGroup is the directory group consulted by the admin
// endpoints when Site.AdminGroup is unset.
const DefaultAdminGroup = "admin"

// handleAdminXACL serves POST /admin/xacl: the body is an XACL document
// whose authorizations are installed at its declared level — durably,
// when the site has a write-ahead log. Unlike the data endpoints, the
// admin surface never admits anonymous callers: the request must carry
// valid credentials AND the user must belong to the admin group, so a
// missing group membership reads as 403, not as a silent no-op.
func (s *Site) handleAdminXACL(w http.ResponseWriter, r *http.Request) {
	user, ok := s.authenticate(r)
	if !ok || user == "" {
		w.Header().Set("WWW-Authenticate", `Basic realm="xmlsec"`)
		http.Error(w, "authentication required", http.StatusUnauthorized)
		return
	}
	group := s.AdminGroup
	if group == "" {
		group = DefaultAdminGroup
	}
	if !s.Directory.MemberOf(user, group) {
		http.Error(w, "admin access requires group "+group, http.StatusForbidden)
		return
	}
	limit := s.MaxUpdateBytes
	if limit <= 0 {
		limit = defaultMaxUpdateBytes
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	x, err := s.LoadXACLContext(r.Context(), string(body))
	if err != nil {
		// A malformed XACL is the caller's fault; an append failure is
		// ours and must not commit (LoadXACLContext already refused).
		if s.Durable() && errors.Is(err, errWALAppend) {
			s.logger().Error("admin xacl append failed",
				"request_id", trace.RequestID(r.Context()), "user", user,
				"error", err.Error())
			http.Error(w, "internal error", http.StatusInternalServerError)
			return
		}
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.logger().Info("admin installed XACL",
		"request_id", trace.RequestID(r.Context()), "user", user,
		"about", x.About, "level", x.Level.String(), "authorizations", len(x.Auths))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Site) handleDTD(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authenticate(r); !ok {
		w.Header().Set("WWW-Authenticate", `Basic realm="xmlsec"`)
		http.Error(w, "authentication failed", http.StatusUnauthorized)
		return
	}
	uri := strings.TrimPrefix(r.URL.Path, "/dtds/")
	loose := s.Docs.Loosened(uri)
	if loose == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/xml-dtd")
	_, _ = w.Write([]byte(loose.String()))
}
