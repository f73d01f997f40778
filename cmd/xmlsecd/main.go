// Command xmlsecd runs the security processor as an HTTP daemon over a
// site configuration directory (see server.LoadSiteDir for the layout).
//
// Usage:
//
//	xmlsecd -site ./site -addr :8080
//
// Endpoints:
//
//	GET /docs/<uri>        view of the document for the authenticated requester
//	PUT /docs/<uri>        update through the view (write authority)
//	POST /docs/<uri>/update apply an update script (write authority; see
//	                       docs/UPDATES.md for the script forms)
//	GET /query/<uri>       XPath query over the view (?q=<expr>)
//	GET /dtds/<uri>        loosened DTD
//	GET /healthz           liveness
//	GET /readyz            readiness (503 until WAL recovery completes)
//	GET /metrics           Prometheus text exposition (stage latencies, HTTP
//	                       counters, cache and store gauges)
//	GET /statz             the same metrics as a JSON snapshot
//	GET /debug/traces      sampled request traces (-trace; see docs/TRACING.md)
//	GET /debug/traces/<id> one trace's span waterfall
//	GET /debug/slowz       slowest requests with their cost cards (-slowlog)
//	GET /debug/cachez      view-cache contents (-view-cache)
//	GET /debug/authindexz  node-set index contents
//	GET /debug/classz      equivalence-class universe (-view-cache)
//	GET /debug/walz        write-ahead log state (-data-dir)
//	GET /debug/pprof/      runtime profiles (-pprof)
//	POST /admin/xacl       install an XACL document (-admin; admin group only)
//
// With -data-dir the daemon is durable: every mutation (document
// update, XACL load, policy change) is written ahead to a log in that
// directory and survives a crash or restart; see docs/PERSISTENCE.md.
// The daemon listens BEFORE recovery begins: /healthz and /readyz
// answer during replay (the latter with 503), while the stateful
// routes refuse traffic until the state is fully recovered.
//
// Requesters authenticate with HTTP Basic credentials from users.conf;
// requests without credentials are served as "anonymous". Every
// response carries an X-Request-ID header that also appears in the
// audit record, structured log lines, slow-log entries and, for
// sampled requests, as the trace ID. Logs are structured (log/slog);
// -log-format selects text (default) or json.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmlsec/internal/server"
	"xmlsec/internal/trace"
	"xmlsec/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	siteDir := flag.String("site", "site", "site configuration directory")
	cacheSize := flag.Int("view-cache", 0, "enable the class-keyed view cache with this many entries (0 = off)")
	auditPath := flag.String("audit", "", "append JSON-lines audit records to this file")
	auditMaxBytes := flag.Int64("audit-max-bytes", 0, "rotate the audit file past this size (0 = never rotate)")
	auditKeep := flag.Int("audit-keep", 3, "rotated audit files to keep (with -audit-max-bytes)")
	traceOn := flag.Bool("trace", false, "record request traces, served at /debug/traces")
	traceBuffer := flag.Int("trace-buffer", 64, "completed traces kept in the recent ring (slow sampled requests keep theirs on the /debug/slowz board)")
	traceSample := flag.Int("trace-sample", 0, fmt.Sprintf("trace every Nth request (0 = default 1-in-%d; 1 = every request)", trace.DefaultSampleEvery))
	slowLog := flag.Duration("slowlog", 250*time.Millisecond, "capture requests at/above this duration with their cost cards at /debug/slowz (0 = capture everything; negative disables)")
	slowLogMax := flag.Int("slowlog-max", 64, "worst requests kept on the /debug/slowz board")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	debugGroup := flag.String("debug-group", "", "directory group allowed to read /statz and /debug/* (empty = open)")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles at /debug/pprof/ (exposes process internals)")
	dataDir := flag.String("data-dir", "", "durable state directory (write-ahead log + snapshots); empty = in-memory only")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy: always, interval, or never (with -data-dir)")
	snapshotBytes := flag.Int64("snapshot-bytes", server.DefaultSnapshotBytes, "compact the log into a snapshot past this many replayable bytes")
	adminOn := flag.Bool("admin", false, "serve POST /admin/xacl for members of the admin group")
	adminGroup := flag.String("admin-group", server.DefaultAdminGroup, "directory group allowed to call the admin endpoints (with -admin)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "xmlsecd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	sync := wal.SyncAlways
	if *dataDir != "" {
		var err error
		sync, err = wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmlsecd: %v\n", err)
			os.Exit(1)
		}
	}

	site, err := server.LoadSiteDir(*siteDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmlsecd: %v\n", err)
		os.Exit(1)
	}
	site.Logger = logger
	site.EnablePprof = *pprofOn
	site.EnableAdminAPI = *adminOn
	site.AdminGroup = *adminGroup
	site.DebugGroup = *debugGroup
	if *cacheSize > 0 {
		site.EnableViewCache(*cacheSize)
	}
	if *slowLog >= 0 {
		site.EnableSlowLog(*slowLog, *slowLogMax)
	}
	if *traceOn {
		site.EnableTracing(trace.Options{Capacity: *traceBuffer, SampleEvery: *traceSample})
	}
	if *auditPath != "" {
		w, err := site.SetAuditFile(*auditPath, *auditMaxBytes, *auditKeep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmlsecd: opening audit log: %v\n", err)
			os.Exit(1)
		}
		defer w.Close()
	}

	// Listen BEFORE recovering: probes and introspection answer while
	// the log replays — /readyz with 503, so load balancers see the
	// process without routing traffic to it — and the stateful routes
	// are 503-gated until the state is complete.
	if *dataDir != "" {
		site.SetReady(false)
	}
	srv := &http.Server{
		Handler:           site.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err.Error())
		os.Exit(1)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *dataDir != "" {
		logger.Info("recovering durable state", "data_dir", *dataDir)
		if err := site.EnableDurability(*dataDir, server.DurabilityOptions{
			Sync:          sync,
			SnapshotBytes: *snapshotBytes,
		}); err != nil {
			logger.Error("recovery failed", "data_dir", *dataDir, "error", err.Error())
			srv.Close()
			os.Exit(1)
		}
		st := site.WALStats()
		logger.Info("recovered durable state",
			"data_dir", *dataDir, "snapshot_lsn", st.SnapshotLSN,
			"replayed", st.ReplayRecords, "fsync", sync.String())
		site.SetReady(true)
	}

	logger.Info("serving",
		"addr", ln.Addr().String(), "documents", len(site.Docs.URIs()),
		"users", site.Users.Len(), "authorizations", site.Auths.Len())

	// Drain in-flight requests on SIGINT/SIGTERM, then flush the audit
	// file via the deferred Close.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "error", err.Error())
		}
		// In-flight mutations have drained; flush the log tail so a
		// clean shutdown never loses interval-fsync'd records.
		if err := site.CloseDurability(); err != nil {
			logger.Error("closing write-ahead log failed", "error", err.Error())
		}
		close(idle)
	}()
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		logger.Error("serve failed", "error", err.Error())
		os.Exit(1)
	}
	<-idle
}
