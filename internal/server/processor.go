package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
	"xmlsec/internal/wal"
	"xmlsec/internal/xmlparse"
)

// ErrNotFound is returned for unknown documents and for documents whose
// view for the requester is empty: a fully protected document is
// indistinguishable from an absent one, extending the paper's
// information-hiding argument for loosening to document existence.
var ErrNotFound = errors.New("server: no such document")

// Site assembles the full access-control system of the paper: subjects
// (directory + credentials), objects (document store), authorizations
// (store + engine), and the security processor operating over them.
type Site struct {
	Directory *subjects.Directory
	Users     *UserDB
	Auths     *authz.Store
	Docs      *DocStore
	Resolver  Resolver
	Engine    *core.Engine

	// ValidateViews re-validates every computed view against the
	// loosened DTD before unparsing (the Section 6.2 guarantee),
	// failing loudly on violation. Costs one validation pass per
	// request; intended for development and tests.
	ValidateViews bool

	// ParsePerRequest re-parses the document source on every request,
	// matching the paper's fully on-line four-step cycle. Off by
	// default: documents are parsed at registration and shared by
	// every request, which preserves semantics (E6 measures both).
	ParsePerRequest bool

	// cache, when non-nil, memoizes processed views per equivalence
	// class and document; see EnableViewCache.
	cache *viewCache

	// classes partitions requesters into authorization-equivalence
	// classes for cache keying; installed by EnableViewCache.
	classes *subjects.ClassIndex

	// audit, when non-nil, receives one record per access decision;
	// see SetAuditLog.
	audit *auditor

	// traces, when non-nil, samples and records per-request traces;
	// see EnableTracing and GET /debug/traces.
	traces *trace.Recorder

	// slow, when non-nil, keeps the cost cards of the slowest requests;
	// see EnableSlowLog and GET /debug/slowz.
	slow *slowLog

	// EnablePprof exposes net/http/pprof under /debug/pprof/ on the
	// site's handler. Off by default: profiling endpoints reveal
	// process internals and cost CPU when scraped, so they share the
	// opt-in posture of /debug/traces.
	EnablePprof bool

	// metrics holds the site's observability registry, built lazily so
	// zero-constructed Sites work too; see Metrics().
	metricsOnce sync.Once
	metrics     *siteMetrics

	// wal, when non-nil, makes every mutation durable; see
	// EnableDurability. persistMu serializes mutations so the WAL's
	// append order equals the in-memory commit order, and snapshots
	// capture a consistent cut. The pointer is atomic because metric
	// scrapes and /debug/walz read it while EnableDurability — which a
	// readiness-gated server runs AFTER it starts listening — is still
	// installing it. snapshotBytes is the compaction threshold;
	// compacting is the single-flight latch for the background
	// compactor. lastFsyncNs remembers the most recent fsync latency
	// for state introspection.
	persistMu     sync.Mutex
	wal           atomic.Pointer[wal.Log]
	snapshotBytes int64
	compacting    atomic.Bool
	lastFsyncNs   atomic.Int64

	// notReady, while nonzero, makes the readiness middleware answer
	// 503 on stateful routes and /readyz; see SetReady. The zero value
	// is "ready" so embedded and test Sites that never gate readiness
	// serve as before.
	notReady atomic.Bool

	// Logger receives the site's structured log records (component,
	// request_id, uri attributes); nil selects slog.Default(). Set it
	// before serving.
	Logger *slog.Logger

	// EnableAdminAPI exposes the mutating admin endpoints (POST
	// /admin/xacl) on the site's handler. Off by default: policy
	// mutation over HTTP needs an explicit opt-in, and callers must
	// additionally authenticate as a member of AdminGroup.
	EnableAdminAPI bool

	// AdminGroup is the directory group whose members may call the
	// admin endpoints; empty selects DefaultAdminGroup.
	AdminGroup string

	// DebugGroup, when set, restricts /statz and every /debug/*
	// endpoint to authenticated members of that directory group (401
	// for anonymous callers, 403 for non-members). Empty leaves them
	// open — the historical posture for trusted networks. /metrics is
	// never gated: Prometheus scrapers do not carry site credentials.
	DebugGroup string

	// MaxUpdateBytes bounds PUT /docs/ request bodies; ≤0 selects the
	// 16 MiB default. Oversized uploads are rejected with 413 rather
	// than silently truncated.
	MaxUpdateBytes int64

	// TrustForwardedFor derives the requester's IP from the
	// X-Forwarded-For header instead of the connection's peer address.
	// Location patterns are an access-control input here, so enable
	// this ONLY when the processor is reachable exclusively through a
	// proxy that sets the header; otherwise clients could forge their
	// location.
	TrustForwardedFor bool
}

// NewSite wires an empty site with a static resolver.
func NewSite() *Site {
	dir := subjects.NewDirectory()
	auths := authz.NewStore()
	s := &Site{
		Directory: dir,
		Users:     NewUserDB(),
		Auths:     auths,
		Docs:      NewDocStore(),
		Resolver:  NewStaticResolver(),
		Engine:    core.NewEngine(dir, auths),
	}
	s.initMetrics() // wire the engine's stage observer before serving
	return s
}

// LoadXACL parses an XACL document and installs its authorizations at
// its declared level, durably when the site has a write-ahead log.
func (s *Site) LoadXACL(input string) (*authz.XACL, error) {
	return s.LoadXACLContext(context.Background(), input)
}

// LoadXACLContext is LoadXACL under a request context; a traced
// context records the WAL append as a span.
func (s *Site) LoadXACLContext(ctx context.Context, input string) (*authz.XACL, error) {
	x, err := authz.ParseXACL(input)
	if err != nil {
		return nil, err
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if err := s.logMutation(ctx, mutation{Op: "xacl", Source: input}); err != nil {
		return nil, err
	}
	if err := s.Auths.AddAll(x.Level, x.Auths); err != nil {
		return nil, err
	}
	s.maybeCompact()
	return x, nil
}

// ProcessResult is the outcome of one execution cycle of the security
// processor.
type ProcessResult struct {
	// View is the computed view (labeling + pruned tree).
	View *core.View
	// XML is the unparsed view document.
	XML string
	// DTDURI is the URI of the (loosened) DTD the view conforms to;
	// empty for DTD-less documents.
	DTDURI string
}

// Process runs the paper's four-step execution cycle for one request:
//
//  1. parsing — the requested document is parsed and validated against
//     its DTD (done at registration unless ParsePerRequest);
//  2. tree labeling — the DOM tree is labeled with the requester's
//     authorizations (core.Engine.Label inside ComputeView);
//  3. transformation — the labeled tree is pruned to the view;
//  4. unparsing — the pruned tree is serialized back to XML text.
//
// The returned view references the loosened DTD, never the original.
// An empty view returns ErrNotFound.
func (s *Site) Process(rq subjects.Requester, uri string) (*ProcessResult, error) {
	return s.ProcessContext(context.Background(), rq, uri)
}

// ProcessContext is Process under a request context. When ctx carries
// a trace (the HTTP middleware starts one per sampled request), every
// cycle stage is recorded as a span, so the trace answers where this
// particular request's time went; the trace's request ID is written
// into the audit record either way. An untraced context adds no
// allocation to the cycle.
func (s *Site) ProcessContext(ctx context.Context, rq subjects.Requester, uri string) (res *ProcessResult, err error) {
	s.initMetrics()
	defer func() {
		var v *core.View
		if res != nil {
			v = res.View
		}
		s.auditRead(ctx, rq, uri, v, err)
		switch {
		case err == nil:
			s.metrics.processed.With("ok").Inc()
		case isNotFound(err):
			s.metrics.processed.With("not-found").Inc()
		default:
			s.metrics.processed.With("error").Inc()
		}
	}()
	rsp := trace.SpanFromContext(ctx)
	if rsp.Traced() {
		rsp.Lazyf("process %s for user=%s ip=%s host=%s", uri, rq.User, rq.IP, rq.Host)
	}
	card := trace.CostFromContext(ctx)
	// Snapshot the document together with the store generation in ONE
	// lock acquisition, and likewise the authorization generation with
	// the per-document time-boundedness. Reading them in separate calls
	// opens a check-to-use race: a concurrent PUT or grant between the
	// two reads files a view of the OLD state under the NEW generation's
	// cache key — a poisoned entry that no later change invalidates.
	sd, docGen := s.Docs.DocWithGeneration(uri)
	if sd == nil {
		return nil, ErrNotFound
	}
	authGen, timeBounded := s.Auths.SnapshotFor(uri, sd.DTDURI)
	// The cache is bypassed when any authorization applicable to THIS
	// document is time-bounded (its views then depend on the clock) or
	// when documents re-parse per request (the operator asked for the
	// fully on-line cycle). Validity windows on unrelated documents
	// leave this document's cache effective.
	useCache := s.cache != nil && !timeBounded && !s.ParsePerRequest
	var key viewKey
	if useCache {
		polGen := s.Engine.PolicyGeneration()
		dirGen := s.Directory.Generation()
		// Collapse the requester into its authorization-equivalence
		// class: the view depends on the requester only through the set
		// of applicable authorizations, so every requester in the class
		// shares one cache entry however large the population.
		csp := trace.StartChild(ctx, "class.resolve")
		class, outcome, cerr := s.classes.ResolveWithOutcome(s.Engine.Hierarchy, rq, authGen, dirGen,
			s.Auths.SubjectUniverse)
		if csp.Traced() {
			csp.Lazyf("class %d", class)
		}
		csp.End()
		if card != nil && cerr == nil {
			card.Class = int64(class)
			if outcome.MemoHit {
				card.ClassMemoHits++
			}
			if outcome.Rebuilt {
				card.ClassRebuilds++
			}
		}
		if cerr != nil {
			// A requester that cannot be placed in ASH (malformed IP)
			// has no class; serve it uncached and let the engine report
			// the error in full.
			useCache = false
		} else {
			key = classKey(class, uri, authGen, docGen, polGen, dirGen)
		}
	}
	if useCache {
		cached, fl, leader := s.cache.beginFlight(key)
		if cached != nil {
			if card != nil {
				card.ViewCacheHits++
			}
			if rsp.Traced() {
				rsp.Lazyf("view cache hit (no cycle run)")
			}
			return cached, nil
		}
		if !leader {
			// Another request is computing exactly this view; wait for
			// it instead of stampeding the engine.
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err == nil && fl.res != nil {
				if card != nil {
					card.ViewCacheCoalesced++
				}
				if rsp.Traced() {
					rsp.Lazyf("view cache hit (coalesced with in-flight computation)")
				}
				return fl.res, nil
			}
			// The leader failed (possibly for reasons specific to its own
			// request, like cancellation); compute for ourselves, uncached.
			useCache = false
		} else {
			if card != nil {
				card.ViewCacheMisses++
			}
			defer func() {
				// Only install the entry if no generation moved while we
				// computed: the engine reads the live stores, so a change
				// mid-computation can yield a view that does not match the
				// snapshotted key. Followers still share the result — it
				// is served either way — but it must not outlive this
				// flight under a stale key.
				store := err == nil && res != nil &&
					s.Auths.Generation() == key.authGen &&
					s.Docs.Generation() == key.docGen &&
					s.Engine.PolicyGeneration() == key.polGen &&
					s.Directory.Generation() == key.dirGen
				s.cache.completeFlight(key, fl, res, err, store)
			}()
		}
	}
	doc := sd.Doc
	if s.ParsePerRequest {
		sp := trace.StartChild(ctx, "parse")
		start := time.Now()
		res, err := xmlparse.Parse(sd.Source, xmlparse.Options{
			Loader:        storeLoader{s.Docs},
			ApplyDefaults: true,
		})
		if err != nil {
			return nil, fmt.Errorf("server: re-parsing %q: %w", uri, err)
		}
		s.observeStage("parse", start)
		sp.End()
		doc = res.Doc
	}
	req := core.Request{Requester: rq, URI: uri, DTDURI: sd.DTDURI}
	view, err := s.Engine.ComputeViewCtx(ctx, req, doc)
	if err != nil {
		return nil, err
	}
	if view.Empty() {
		return nil, ErrNotFound
	}
	if s.ValidateViews && sd.DTDURI != "" {
		sp := trace.StartChild(ctx, "validate")
		start := time.Now()
		loose := s.Docs.Loosened(sd.DTDURI)
		if loose == nil {
			return nil, fmt.Errorf("server: document %q references unregistered DTD %q", uri, sd.DTDURI)
		}
		if errs := loose.Validate(view.Materialize(), dtd.ValidateOptions{IgnoreIDs: true}); errs != nil {
			return nil, fmt.Errorf("server: view of %q violates the loosened DTD: %w", uri, errs)
		}
		s.observeStage("validate", start)
		sp.End()
	}
	sp := trace.StartChild(ctx, "unparse")
	start := time.Now()
	// Unparse through the visibility mask into a pooled, size-hinted
	// buffer: the shared document's arena is swept directly, emitting
	// only mask-visible nodes, with no per-request tree to build or
	// discard and no per-request buffer growth once the pool is warm.
	b := dom.GetBuffer(doc.ReadArena().SizeHint())
	err = view.WriteXML(b, dom.WriteOptions{
		Indent: "  ",
		// The view's DOCTYPE keeps the same system identifier; the
		// site serves the loosened DTD under the original's URI.
		OmitDocType: sd.DTDURI == "",
	})
	if err != nil {
		dom.PutBuffer(b)
		return nil, err
	}
	s.observeStage("unparse", start)
	if card != nil {
		card.BytesSerialized += int64(b.Len())
	}
	if sp.Traced() {
		sp.Lazyf("%d bytes", b.Len())
		sp.End()
	}
	xml := b.String()
	dom.PutBuffer(b)
	// When this request leads a flight, the deferred completeFlight
	// publishes the result to any coalesced followers and installs it in
	// the cache (after re-checking the generations it was keyed under).
	return &ProcessResult{View: view, XML: xml, DTDURI: sd.DTDURI}, nil
}

// EnableViewCache turns on memoization of processed views, bounded to
// max entries (≤0 selects a default). Entries are keyed on the
// requester's authorization-equivalence class — not its raw identity —
// plus the authorization-, document-, policy-, and directory
// generations, so any policy, content, or membership change
// invalidates them, and the entry count is bounded by classes ×
// documents regardless of population size. Returns the site for
// chaining.
func (s *Site) EnableViewCache(max int) *Site {
	s.cache = newViewCache(max)
	s.classes = subjects.NewClassIndex()
	return s
}

// CacheStats reports view-cache hits and misses (zeros when disabled).
func (s *Site) CacheStats() (hits, misses uint64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Stats()
}

// CacheEntries reports the number of views currently cached (zero when
// disabled). Under class keying this stays bounded by classes ×
// documents however many distinct requesters are served.
func (s *Site) CacheEntries() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// CacheCoalesced reports how many requests were served by waiting on
// another request's in-flight view computation (zero when disabled).
func (s *Site) CacheCoalesced() uint64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.Coalesced()
}

// ClassStats reports the equivalence-class index's counters (zeros
// when the class-keyed cache is not enabled).
func (s *Site) ClassStats() subjects.ClassIndexStats {
	if s.classes == nil {
		return subjects.ClassIndexStats{}
	}
	return s.classes.Stats()
}

// storeLoader adapts the DocStore's DTD registry to the parser.
type storeLoader struct{ docs *DocStore }

func (l storeLoader) LoadDTD(systemID string) (string, error) {
	if src, ok := l.docs.DTDSource(systemID); ok {
		return src, nil
	}
	return "", fmt.Errorf("server: DTD %q not registered", systemID)
}

// RequesterFor builds the subject triple for a connection: the
// authenticated user (empty means anonymous), the peer IP, and the
// symbolic name obtained from the resolver.
func (s *Site) RequesterFor(user, ip string) subjects.Requester {
	host := ""
	if s.Resolver != nil {
		host = s.Resolver.Reverse(ip)
	}
	if user == "" {
		user = "anonymous"
	}
	return subjects.Requester{User: user, IP: ip, Host: host}
}
