package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xmlsec/internal/core"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
)

// siteMetrics holds the site's registry and the families the hot path
// writes to directly; everything read-on-scrape (cache stats, store
// generations, audit volume) registers as a Func metric instead.
type siteMetrics struct {
	reg          *obs.Registry
	httpReqs     *obs.CounterVec   // route, status
	httpDur      *obs.HistogramVec // route
	processed    *obs.CounterVec   // outcome
	authFill     *obs.Histogram    // node-set index fill latency
	walFsync     *obs.Histogram    // WAL fsync latency
	walSnapshot  *obs.Histogram    // snapshot capture+write latency
	updateReqs   *obs.CounterVec   // update scripts, by outcome
	updateOps    *obs.Counter      // operations committed
	updateCopied *obs.Counter      // copy-on-write nodes
	updateApply  *obs.Histogram    // whole update-apply latency

	stages *obs.StageHistograms // fed from each request's cost card at completion
}

// Metrics returns the site's metric registry, initializing it on first
// use. The registry is also reachable over HTTP: Handler() serves it at
// GET /metrics (Prometheus text exposition) and GET /statz (JSON).
func (s *Site) Metrics() *obs.Registry {
	s.initMetrics()
	return s.metrics.reg
}

func (s *Site) initMetrics() {
	s.metricsOnce.Do(func() {
		reg := obs.NewRegistry()
		m := &siteMetrics{reg: reg}
		m.stages = obs.NewStageHistograms(reg.NewHistogramVec("xmlsec_stage_duration_seconds",
			"Time each request spent in each stage of its cycle (parse, label, prune, validate, unparse, merge, update.apply, wal.append).",
			obs.DefStageBuckets, "stage"))
		m.httpReqs = reg.NewCounterVec("xmlsec_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "status")
		m.httpDur = reg.NewHistogramVec("xmlsec_http_request_duration_seconds",
			"HTTP request latency, by route.", obs.DefLatencyBuckets, "route")
		m.processed = reg.NewCounterVec("xmlsec_process_total",
			"Security-processor cycles, by outcome (ok, not-found, error).", "outcome")
		m.updateReqs = reg.NewCounterVec("xmlsec_update_requests_total",
			"Update scripts received, by outcome (ok, not-found, forbidden, conflict, invalid, error).", "outcome")
		m.updateOps = reg.NewCounter("xmlsec_update_ops_total",
			"Script operations committed by successful updates.")
		m.updateCopied = reg.NewCounter("xmlsec_update_nodes_copied_total",
			"Nodes copied for updates (copy-on-write clone plus inserted fragments).")
		m.updateApply = reg.NewHistogram("xmlsec_update_apply_duration_seconds",
			"End-to-end latency of update scripts (resolve, authorize, apply, log, commit).",
			obs.DefLatencyBuckets)
		reg.NewCounterFunc("xmlsec_view_cache_hits_total",
			"View-cache hits (0 when the cache is disabled).", func() float64 {
				hits, _ := s.CacheStats()
				return float64(hits)
			})
		reg.NewCounterFunc("xmlsec_view_cache_misses_total",
			"View-cache misses (0 when the cache is disabled).", func() float64 {
				_, misses := s.CacheStats()
				return float64(misses)
			})
		reg.NewCounterFunc("xmlsec_viewcache_coalesced_total",
			"Requests served by waiting on another request's in-flight view computation.", func() float64 {
				return float64(s.CacheCoalesced())
			})
		reg.NewGaugeFunc("xmlsec_viewcache_entries",
			"Views currently cached; bounded by classes × documents under class keying.", func() float64 {
				return float64(s.CacheEntries())
			})
		reg.NewGaugeFunc("xmlsec_viewcache_class_classes",
			"Authorization-equivalence classes assigned under the current subject universe.", func() float64 {
				return float64(s.ClassStats().Classes)
			})
		reg.NewGaugeFunc("xmlsec_viewcache_class_subjects",
			"Subjects in the universe the class index partitions requesters against.", func() float64 {
				return float64(s.ClassStats().Subjects)
			})
		reg.NewCounterFunc("xmlsec_viewcache_class_resolves_total",
			"Requester-to-class classifications performed by the class index.", func() float64 {
				return float64(s.ClassStats().Resolves)
			})
		reg.NewCounterFunc("xmlsec_viewcache_class_rebuilds_total",
			"Class-index universe rebuilds (policy or directory generation changes observed).", func() float64 {
				return float64(s.ClassStats().Rebuilds)
			})
		reg.NewCounterFunc("xmlsec_audit_records_total",
			"Audit records written since startup.", func() float64 {
				return float64(s.audit.Records())
			})
		reg.NewGaugeFunc("xmlsec_authz_generation",
			"Authorization-store generation; changes whenever the policy changes.", func() float64 {
				if s.Auths == nil {
					return 0
				}
				return float64(s.Auths.Generation())
			})
		reg.NewGaugeFunc("xmlsec_docstore_generation",
			"Document-store generation; changes whenever registered content changes.", func() float64 {
				if s.Docs == nil {
					return 0
				}
				return float64(s.Docs.Generation())
			})
		reg.NewGaugeFunc("xmlsec_documents",
			"Documents registered at the site.", func() float64 {
				if s.Docs == nil {
					return 0
				}
				return float64(len(s.Docs.URIs()))
			})
		authIndexStats := func() core.AuthIndexStats {
			if s.Engine == nil {
				return core.AuthIndexStats{}
			}
			if idx := s.Engine.AuthIndex(); idx != nil {
				return idx.Stats()
			}
			return core.AuthIndexStats{}
		}
		reg.NewCounterFunc("xmlsec_authindex_hits_total",
			"Node-set index lookups that found a cached set (no XPath work).", func() float64 {
				return float64(authIndexStats().Hits)
			})
		reg.NewCounterFunc("xmlsec_authindex_misses_total",
			"Node-set index lookups that had to wait for a fill.", func() float64 {
				return float64(authIndexStats().Misses)
			})
		reg.NewCounterFunc("xmlsec_authindex_fills_total",
			"Node-set index fills (actual XPath evaluations; misses share fills under concurrency).", func() float64 {
				return float64(authIndexStats().Fills)
			})
		reg.NewCounterFunc("xmlsec_authindex_invalidations_total",
			"Node-set index entries dropped (store mutations, document replacement, policy changes).", func() float64 {
				return float64(authIndexStats().Invalidations)
			})
		reg.NewGaugeFunc("xmlsec_authindex_documents",
			"Documents currently held in the node-set index.", func() float64 {
				return float64(authIndexStats().Documents)
			})
		reg.NewGaugeFunc("xmlsec_authindex_entries",
			"Cached node-sets across all indexed documents.", func() float64 {
				return float64(authIndexStats().Entries)
			})
		reg.NewCounterFunc("xmlsec_trace_requests_total",
			"Requests offered to the trace sampler (0 when tracing is disabled).", func() float64 {
				reqs, _ := s.traces.Stats()
				return float64(reqs)
			})
		reg.NewCounterFunc("xmlsec_trace_sampled_total",
			"Requests that produced a trace; see /debug/traces.", func() float64 {
				_, sampled := s.traces.Stats()
				return float64(sampled)
			})
		m.authFill = reg.NewHistogram("xmlsec_authindex_fill_duration_seconds",
			"Latency of node-set index fills (one authorization path evaluated over one document).",
			obs.DefStageBuckets)
		m.walFsync = reg.NewHistogram("xmlsec_wal_fsync_seconds",
			"Latency of write-ahead log fsyncs (the durability cost of a mutation under -fsync always).",
			obs.DefLatencyBuckets)
		m.walSnapshot = reg.NewHistogram("xmlsec_wal_snapshot_duration_seconds",
			"Latency of snapshot compactions (state capture + atomic write + segment pruning).",
			obs.DefLatencyBuckets)
		reg.NewCounterFunc("xmlsec_wal_appends_total",
			"Mutation records appended to the write-ahead log (0 when durability is off).", func() float64 {
				return float64(s.WALStats().Appends)
			})
		reg.NewCounterFunc("xmlsec_wal_replay_records_total",
			"Records replayed from the log during the last recovery.", func() float64 {
				return float64(s.WALStats().ReplayRecords)
			})
		reg.NewCounterFunc("xmlsec_wal_snapshots_total",
			"Snapshots written since startup (initial baseline + compactions).", func() float64 {
				return float64(s.WALStats().Snapshots)
			})
		reg.NewCounterFunc("xmlsec_wal_segments_pruned_total",
			"Log segment files deleted after being folded into a snapshot.", func() float64 {
				return float64(s.WALStats().SegmentsPruned)
			})
		reg.NewGaugeFunc("xmlsec_wal_snapshot_bytes",
			"Payload size of the newest snapshot written this run.", func() float64 {
				return float64(s.WALStats().SnapshotBytes)
			})
		reg.NewGaugeFunc("xmlsec_wal_size_bytes",
			"Bytes of log a recovery would replay (compaction keys on this).", func() float64 {
				return float64(s.WALStats().LiveBytes)
			})
		reg.NewGaugeFunc("xmlsec_wal_last_lsn",
			"Sequence number of the newest durable mutation record.", func() float64 {
				return float64(s.WALStats().LastLSN)
			})
		reg.NewGaugeFunc("xmlsec_ready",
			"1 once the site's state is recovered and serving (see /readyz), 0 during startup/replay.", func() float64 {
				if s.Ready() {
					return 1
				}
				return 0
			})
		reg.NewCounterFunc("xmlsec_slowlog_observed_total",
			"Requests at or above the slow-log threshold (0 when the slow log is disabled).", func() float64 {
				observed, _, _ := s.slow.StatsCounts()
				return float64(observed)
			})
		reg.NewCounterFunc("xmlsec_slowlog_recorded_total",
			"Requests admitted to the slow-log board (including later-evicted ones).", func() float64 {
				_, recorded, _ := s.slow.StatsCounts()
				return float64(recorded)
			})
		reg.NewGaugeFunc("xmlsec_slowlog_entries",
			"Entries currently on the slow-log board; see /debug/slowz.", func() float64 {
				_, _, size := s.slow.StatsCounts()
				return float64(size)
			})
		s.metrics = m
		if s.Engine != nil {
			if idx := s.Engine.AuthIndex(); idx != nil {
				idx.SetFillObserver(func(d time.Duration) {
					m.authFill.Observe(d.Seconds())
				})
			}
		}
	})
}

// handleMetrics serves GET /metrics: the registry in Prometheus text
// exposition format.
func (s *Site) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	if err := s.Metrics().WritePrometheus(w); err != nil {
		s.logger().Warn("writing /metrics response failed", "error", err.Error())
	}
}

// handleStatz serves GET /statz: the same registry as a JSON snapshot
// for humans and non-Prometheus tooling.
func (s *Site) handleStatz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Metrics().Snapshot()); err != nil {
		s.logger().Warn("writing /statz response failed", "error", err.Error())
	}
}

// instrument wraps the site's mux: it stamps every response with an
// X-Request-ID, starts a trace for sampled requests (the trace ID IS
// the request ID, so audit lines, response headers, and /debug/traces
// all join on one value), attaches a pooled cost card that the hot
// path itemizes its work and stage times onto, and records request
// count, status, and latency per route. When the request finishes,
// each stage it ran is observed once in xmlsec_stage_duration_seconds,
// and the card is copied unchanged into the trace snapshot and offered
// to the slow-request log, then returned to the pool — the card itself
// never outlives the request.
func (s *Site) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeOf(r.URL.Path)
		ctx := r.Context()
		tr := s.traces.Start(r.Method + " " + route) // nil recorder or unsampled → nil
		id := requestIDFrom(r)
		if tr != nil {
			if id != "" {
				// Propagate the client's well-formed ID as the trace ID
				// so the caller's correlation value works everywhere.
				tr.ID = id
			} else {
				id = tr.ID
			}
			root := tr.Root()
			root.Lazyf("%s %s from %s", r.Method, r.URL.Path, r.RemoteAddr)
			ctx = trace.NewContext(ctx, root)
		} else if id == "" {
			id = trace.NewID()
		}
		// The card rides in the SAME context value as the request ID, so
		// cost accounting adds no context allocation over the seed path.
		card := obs.GetCostCard()
		ctx = trace.WithRequest(ctx, id, card)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)
		s.metrics.stages.Observe(card)
		if tr != nil {
			tr.SetCost(*card)
			tr.Root().Lazyf("status %d", sw.status)
			tr.Finish()
		}
		if s.slow.record(SlowEntry{
			RequestID: id, Method: r.Method, Route: route, Status: sw.status,
			Start: start, DurationNs: dur.Nanoseconds(), Cost: *card,
		}) {
			// One structured line per admitted slow request: operators
			// grep logs by request_id and land on the same entry that
			// /debug/slowz, the audit trail, and the trace ring hold.
			s.logger().Warn("slow request",
				"request_id", id, "method", r.Method, "route", route,
				"status", sw.status, "duration", dur, "class", card.Class,
				"nodes_labeled", card.NodesLabeled, "bytes", card.BytesSerialized)
		}
		obs.PutCostCard(card)
		s.metrics.httpReqs.With(route, strconv.Itoa(sw.status)).Inc()
		s.metrics.httpDur.With(route).Observe(dur.Seconds())
	})
}

// routeOf buckets request paths into the mux's route patterns so the
// per-route label stays low-cardinality no matter what clients send.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/docs/") && strings.HasSuffix(path, "/update"):
		return "/docs/*/update"
	case strings.HasPrefix(path, "/docs/"):
		return "/docs/"
	case strings.HasPrefix(path, "/query/"):
		return "/query/"
	case strings.HasPrefix(path, "/dtds/"):
		return "/dtds/"
	case strings.HasPrefix(path, "/admin/"):
		return "/admin/"
	case strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof/"
	case strings.HasPrefix(path, "/debug/traces"):
		return "/debug/traces"
	case path == "/debug/slowz", path == "/debug/cachez", path == "/debug/authindexz",
		path == "/debug/classz", path == "/debug/walz":
		return path
	case path == "/healthz", path == "/readyz", path == "/metrics", path == "/statz":
		return path
	default:
		return "other"
	}
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}
