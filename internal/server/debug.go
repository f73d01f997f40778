package server

import (
	"encoding/json"
	"net/http"

	"xmlsec/internal/trace"
)

// EnableTracing installs a per-request trace recorder (see
// internal/trace): each sampled request's execution cycle is recorded
// as a span tree, kept in a bounded ring served at GET /debug/traces.
// The slow board (EnableSlowLog) keeps the traces of the sampled
// requests it admits. Returns the site for chaining. Call before
// Handler(), like the other site options; passing the zero Options
// selects the defaults (64 recent traces, one request in
// trace.DefaultSampleEvery sampled).
func (s *Site) EnableTracing(opts trace.Options) *Site {
	s.traces = trace.NewRecorder(opts)
	return s
}

// TraceRecorder returns the site's trace recorder, or nil when tracing
// is disabled. The nil result is safe to use: a nil recorder samples
// nothing.
func (s *Site) TraceRecorder() *trace.Recorder { return s.traces }

// tracesResponse is the body of GET /debug/traces: recorder totals
// plus the ring as summaries (no span trees; fetch /debug/traces/{id}
// for one request's waterfall).
type tracesResponse struct {
	// Requests counts every request offered to the sampler; Sampled
	// counts the ones that produced a trace.
	Requests uint64 `json:"requests"`
	Sampled  uint64 `json:"sampled"`
	// Recent holds the last-N completed traces, newest first.
	Recent []trace.Snapshot `json:"recent"`
}

// handleTraces serves GET /debug/traces: the ring as JSON summaries.
// Like /statz it is served unauthenticated on the site's handler; it
// exposes URIs, requester names, and timings, so keep the handler off
// untrusted networks or front it with a proxy. 404 when tracing is
// disabled, indistinguishable from an unknown route by design.
func (s *Site) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.NotFound(w, r)
		return
	}
	recent := s.traces.Recent()
	resp := tracesResponse{Recent: make([]trace.Snapshot, 0, len(recent))}
	resp.Requests, resp.Sampled = s.traces.Stats()
	for _, t := range recent {
		resp.Recent = append(resp.Recent, t.Snapshot(false))
	}
	s.writeJSON(w, resp)
}

// handleTraceDetail serves GET /debug/traces/{id}: one trace with its
// full span tree — offsets, durations, depths, and annotations — the
// data a waterfall rendering needs. The trace is found in the ring or,
// after the ring has churned, on the slow board.
func (s *Site) handleTraceDetail(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.NotFound(w, r)
		return
	}
	id := r.PathValue("id")
	t := s.traces.Lookup(id)
	if t == nil {
		t = s.slow.lookupTrace(id)
	}
	if t == nil {
		http.Error(w, "no such trace (evicted or never sampled)", http.StatusNotFound)
		return
	}
	s.writeJSON(w, t.Snapshot(true))
}

func (s *Site) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logger().Warn("writing debug response failed", "error", err.Error())
	}
}

// requestIDFrom returns a client-supplied X-Request-ID when it is safe
// to propagate — non-empty, bounded, and drawn from an inert charset —
// or "" to mint a fresh one. Propagating the client's ID lets callers
// correlate their own logs with the audit trail and traces; validating
// it keeps log-injection and unbounded values out of both.
func requestIDFrom(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}
