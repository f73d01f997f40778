package server

import (
	"net/http"

	"xmlsec/internal/wal"
)

// This file holds the deep state inspectors served beside /statz: where
// the metric registry aggregates, these dump the actual contents of the
// runtime structures PRs 1–8 built — the view cache, the node-set
// index, the class universe, the write-ahead log — plus the slow-
// request log and the /readyz readiness probe. All answer 404 while
// their subsystem is disabled, matching /debug/traces.

// SetReady flips the site's readiness (see GET /readyz). A zero-valued
// Site is ready, so embedded and test uses serve unchanged; servers
// that recover a WAL before serving mark themselves not-ready first,
// listen, and flip ready once recovery completes — load balancers then
// see the process during replay without routing traffic to it.
func (s *Site) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether the site is serving (readiness, not liveness).
func (s *Site) Ready() bool { return !s.notReady.Load() }

// handleReadyz serves GET /readyz: 200 once the site's state is fully
// recovered and serving, 503 before that. Distinct from /healthz, which
// answers 200 as soon as the process accepts connections: liveness says
// "don't restart me", readiness says "you may route traffic to me".
func (s *Site) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// gateReadiness answers 503 on the stateful routes while the site is
// not ready: during WAL replay the stores are mid-mutation, so views
// computed from them could be of half-recovered state. Probe and
// observability routes stay reachable — that is the point of listening
// before recovery finishes.
func (s *Site) gateReadiness(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			switch routeOf(r.URL.Path) {
			case "/docs/", "/query/", "/dtds/", "/admin/":
				w.Header().Set("Retry-After", "1")
				http.Error(w, "recovering", http.StatusServiceUnavailable)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// gateDebug wraps an introspection handler with the site's debug-
// endpoint authorization: when DebugGroup is set, the caller must
// authenticate (401 otherwise) and belong to that directory group (403
// otherwise). With DebugGroup empty the handler is open, the historical
// /statz posture. /metrics is deliberately not gated: Prometheus
// scrapers do not do Basic auth against the site's user database.
func (s *Site) gateDebug(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g := s.DebugGroup; g != "" {
			if _, ok := s.requireMember(w, r, g, "debug"); !ok {
				return
			}
		}
		next(w, r)
	}
}

// slowzResponse is the body of GET /debug/slowz.
type slowzResponse struct {
	// ThresholdNs is the capture threshold; requests at or above it are
	// offered to the board.
	ThresholdNs int64 `json:"threshold_ns"`
	// Observed counts requests that crossed the threshold; Recorded the
	// ones admitted to the board (including later-evicted ones).
	Observed uint64 `json:"observed"`
	Recorded uint64 `json:"recorded"`
	// Entries is the current board, slowest first.
	Entries []SlowEntry `json:"entries"`
}

// handleSlowz serves GET /debug/slowz: the worst-offender board with
// each request's cost card, joined to audit records, traces, and logs
// by request_id. 404 until EnableSlowLog.
func (s *Site) handleSlowz(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		http.NotFound(w, r)
		return
	}
	observed, recorded, _ := s.slow.StatsCounts()
	s.writeJSON(w, slowzResponse{
		ThresholdNs: s.slow.threshold.Nanoseconds(),
		Observed:    observed,
		Recorded:    recorded,
		Entries:     s.slow.Snapshot(),
	})
}

// cachezResponse is the body of GET /debug/cachez. Generations is the
// vector every entry is keyed under (the cache holds no other). Bytes
// totals the entries' rendered text lengths, ResidentBytes what the
// entries hold of their own: the figure that grows the heap.
type cachezResponse struct {
	Hits          uint64           `json:"hits"`
	Misses        uint64           `json:"misses"`
	Coalesced     uint64           `json:"coalesced"`
	Generations   generations      `json:"generations"`
	Bytes         int              `json:"bytes"`
	ResidentBytes int              `json:"resident_bytes"`
	Entries       []CacheEntryInfo `json:"entries"`
}

// handleCachez serves GET /debug/cachez: the cache's generation vector
// and total sizes, then every cached view with its class, generations,
// age, and sizes. 404 until EnableViewCache.
func (s *Site) handleCachez(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		http.NotFound(w, r)
		return
	}
	hits, misses := s.cache.Stats()
	gen, entries := s.cache.Entries()
	total, resident := 0, 0
	for _, e := range entries {
		total += e.Bytes
		resident += e.ResidentBytes
	}
	s.writeJSON(w, cachezResponse{
		Hits:          hits,
		Misses:        misses,
		Coalesced:     s.cache.Coalesced(),
		Generations:   gen,
		Bytes:         total,
		ResidentBytes: resident,
		Entries:       entries,
	})
}

// authindexzDoc is one indexed document in GET /debug/authindexz; URI
// is "(replaced)" for superseded documents awaiting lazy invalidation.
type authindexzDoc struct {
	URI   string `json:"uri"`
	Gen   uint64 `json:"gen"`
	Sets  int    `json:"sets"`
	Nodes int    `json:"nodes"`
}

type authindexzResponse struct {
	Hits          uint64          `json:"hits"`
	Misses        uint64          `json:"misses"`
	Fills         uint64          `json:"fills"`
	Invalidations uint64          `json:"invalidations"`
	Documents     []authindexzDoc `json:"documents"`
}

// handleAuthindexz serves GET /debug/authindexz: per-document node-set
// counts plus fill-effectiveness counters.
func (s *Site) handleAuthindexz(w http.ResponseWriter, r *http.Request) {
	idx := s.Engine.AuthIndex()
	if idx == nil {
		http.NotFound(w, r)
		return
	}
	byDoc := make(map[any]string)
	for _, uri := range s.Docs.URIs() {
		if sd := s.Docs.Doc(uri); sd != nil {
			byDoc[sd.Doc] = uri
		}
	}
	st := idx.Stats()
	resp := authindexzResponse{
		Hits: st.Hits, Misses: st.Misses, Fills: st.Fills,
		Invalidations: st.Invalidations,
		Documents:     []authindexzDoc{},
	}
	for _, d := range idx.Inspect() {
		uri, ok := byDoc[d.Doc]
		if !ok {
			uri = "(replaced)"
		}
		resp.Documents = append(resp.Documents, authindexzDoc{
			URI: uri, Gen: d.Gen, Sets: d.Sets, Nodes: d.Nodes,
		})
	}
	s.writeJSON(w, resp)
}

// handleClassz serves GET /debug/classz: the equivalence-class
// universe, its epoch, the assigned classes, and memo occupancy. 404
// unless the class-keyed view cache is enabled.
func (s *Site) handleClassz(w http.ResponseWriter, r *http.Request) {
	if s.classes == nil {
		http.NotFound(w, r)
		return
	}
	s.writeJSON(w, s.classes.Inspect())
}

// walzResponse is the body of GET /debug/walz.
type walzResponse struct {
	Stats wal.Stats `json:"stats"`
	// Segments lists the log's files in LSN order; the last is active.
	Segments []wal.SegmentInfo `json:"segments"`
	// LastFsyncNs is the latency of the most recent data fsync (0 until
	// one has run).
	LastFsyncNs int64 `json:"last_fsync_ns"`
	// Compacting reports an in-flight background compaction;
	// SnapshotThresholdBytes is the log size that triggers one.
	Compacting             bool  `json:"compacting"`
	SnapshotThresholdBytes int64 `json:"snapshot_threshold_bytes"`
}

// handleWalz serves GET /debug/walz: durable LSN, segment sizes, last
// fsync latency, and compactor state. 404 until EnableDurability.
func (s *Site) handleWalz(w http.ResponseWriter, r *http.Request) {
	l := s.wal.Load()
	if l == nil {
		http.NotFound(w, r)
		return
	}
	s.writeJSON(w, walzResponse{
		Stats:                  l.Stats(),
		Segments:               l.Segments(),
		LastFsyncNs:            s.lastFsyncNs.Load(),
		Compacting:             s.compacting.Load(),
		SnapshotThresholdBytes: s.snapshotBytes,
	})
}
